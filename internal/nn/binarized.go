package nn

import (
	"fmt"
	"sync"
)

// Binarized is a compiled snapshot of the deployed (binarized) model: each
// logical node keeps only the input indices its weight selects (w > 0.5), so
// evaluation is pure boolean logic — no float products over the full input
// width. It takes its selections from the same compiled snapshot as the
// Model's discrete entry points, and over {0,1} inputs (which is all the
// predicate encoder ever emits) its scores and rule activations are
// bit-identical to theirs: conjunction/disjunction of binary inputs equals
// the discrete soft-logic product, and the head sum skips exactly the zero
// terms, which cannot change an IEEE sum.
// TestPropertyBinarizedMatchesForward pins the equivalence down on random
// models.
//
// The snapshot is immutable: training the model further does not update it.
// Build it once after training (rule extraction does this) and reuse it for
// all inference.
type Binarized struct {
	inDim   int
	ruleDim int
	layers  []binLayer
	headW   []float64
	headB   float64
	workers int

	pool sync.Pool // *binBuffers
}

type binLayer struct {
	nodes []binNode
}

type binNode struct {
	conj bool
	sel  []int32 // selected indices into the layer's input vector
}

type binBuffers struct {
	layerIn  [][]float64
	layerOut [][]float64
	rules    []float64
	row      []float64 // float32→float64 conversion scratch for wire inputs
}

// Binarize compiles the model's current binarized structure. The returned
// evaluator snapshots the weights; it does not track later training.
func (m *Model) Binarize() *Binarized {
	b := &Binarized{
		inDim:   m.inDim,
		ruleDim: m.ruleDim,
		headW:   append([]float64(nil), m.headW...),
		headB:   m.flat[len(m.flat)-1],
		workers: m.workerCount(),
	}
	// A fresh (unpooled) snapshot: the nodes keep views into its slab.
	var d discSnap
	m.compileInto(&d)
	ni := 0
	for _, l := range m.layers {
		bl := binLayer{nodes: make([]binNode, l.size())}
		for n := range bl.nodes {
			bl.nodes[n] = binNode{conj: l.nodeKind(n) == nodeConj, sel: d.node(ni)}
			ni++
		}
		b.layers = append(b.layers, bl)
	}
	b.pool = sync.Pool{New: func() any {
		buf := &binBuffers{
			rules: make([]float64, b.ruleDim),
			row:   make([]float64, b.inDim),
		}
		prev := b.inDim
		for _, l := range b.layers {
			buf.layerIn = append(buf.layerIn, make([]float64, prev))
			buf.layerOut = append(buf.layerOut, make([]float64, len(l.nodes)))
			prev = b.inDim + len(l.nodes)
		}
		return buf
	}}
	return b
}

// InDim returns the expected input width.
func (b *Binarized) InDim() int { return b.inDim }

// eval computes the score and fills buf.rules with the {0,1} activations.
// Inputs must be {0,1} valued (the predicate encoder's output domain).
func (b *Binarized) eval(x []float64, buf *binBuffers) float64 {
	if len(x) != b.inDim {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), b.inDim))
	}
	ri := 0
	for k := range b.layers {
		in := buf.layerIn[k]
		copy(in, x)
		if k > 0 {
			copy(in[b.inDim:], buf.layerOut[k-1])
		}
		out := buf.layerOut[k]
		for n, node := range b.layers[k].nodes {
			if node.conj {
				v := 1.0
				for _, i := range node.sel {
					if in[i] == 0 {
						v = 0
						break
					}
				}
				out[n] = v
			} else {
				v := 0.0
				for _, i := range node.sel {
					if in[i] != 0 {
						v = 1
						break
					}
				}
				out[n] = v
			}
		}
		copy(buf.rules[ri:ri+len(out)], out)
		ri += len(out)
	}
	s := b.headB
	for j, r := range buf.rules {
		if r != 0 {
			s += b.headW[j]
		}
	}
	return s
}

// Score returns the deployed model's pre-threshold score for x.
func (b *Binarized) Score(x []float64) float64 {
	buf := b.pool.Get().(*binBuffers)
	s := b.eval(x, buf)
	b.pool.Put(buf)
	return s
}

// RuleActivations fills dst (one entry per rule, allocated when nil) with the
// {0,1} rule-activation vector for x and returns it.
func (b *Binarized) RuleActivations(x []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, b.ruleDim)
	}
	buf := b.pool.Get().(*binBuffers)
	b.eval(x, buf)
	copy(dst, buf.rules)
	b.pool.Put(buf)
	return dst
}

// ScoreAndActivationsBatch computes scores and rule-activation rows for
// every input in one parallel pass, mirroring the Model method of the same
// name but on the compiled evaluator.
func (b *Binarized) ScoreAndActivationsBatch(xs [][]float64) (scores []float64, acts [][]float64) {
	scores = make([]float64, len(xs))
	acts = make([][]float64, len(xs))
	slab := make([]float64, len(xs)*b.ruleDim)
	b.parallelOver(len(xs), func(lo, hi int, buf *binBuffers) {
		for i := lo; i < hi; i++ {
			scores[i] = b.eval(xs[i], buf)
			row := slab[i*b.ruleDim : (i+1)*b.ruleDim : (i+1)*b.ruleDim]
			copy(row, buf.rules)
			acts[i] = row
		}
	})
	return scores, acts
}

// ScoreBatchFloat32 scores n = len(rows)/InDim() feature rows, packed
// row-major as float32 wire values, writing the pre-threshold scores into
// dst[:n]. This is the /v1/predict hot path: rows convert into pooled
// scratch and evaluation reuses the same pooled buffers as Score, so the
// steady state allocates nothing (pinned by
// TestBinarizedScoreBatchZeroAlloc). Inputs must be {0,1} valued, like
// every other Binarized entry point. It panics if len(rows) is not a
// multiple of the input width or dst is too short — callers validate the
// wire payload first.
func (b *Binarized) ScoreBatchFloat32(rows []float32, dst []float64) {
	if len(rows)%b.inDim != 0 {
		panic(fmt.Sprintf("nn: %d feature values do not divide into width-%d rows", len(rows), b.inDim))
	}
	n := len(rows) / b.inDim
	if len(dst) < n {
		panic(fmt.Sprintf("nn: score buffer %d, want %d", len(dst), n))
	}
	if n == 0 {
		return
	}
	// The single-worker case skips parallelOver: passing it a closure heap-
	// allocates the capture, and this path's whole point is allocating
	// nothing.
	if b.workers <= 1 || n == 1 {
		buf := b.pool.Get().(*binBuffers)
		b.scoreRangeFloat32(rows, dst, 0, n, buf)
		b.pool.Put(buf)
		return
	}
	b.parallelOver(n, func(lo, hi int, buf *binBuffers) {
		b.scoreRangeFloat32(rows, dst, lo, hi, buf)
	})
}

func (b *Binarized) scoreRangeFloat32(rows []float32, dst []float64, lo, hi int, buf *binBuffers) {
	for i := lo; i < hi; i++ {
		row := rows[i*b.inDim : (i+1)*b.inDim]
		for j, v := range row {
			buf.row[j] = float64(v)
		}
		dst[i] = b.eval(buf.row, buf)
	}
}

func (b *Binarized) parallelOver(n int, fn func(lo, hi int, buf *binBuffers)) {
	if n == 0 {
		return
	}
	workers := b.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := b.pool.Get().(*binBuffers)
		fn(0, n, buf)
		b.pool.Put(buf)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for wkr := 0; wkr < workers; wkr++ {
		lo := wkr * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := b.pool.Get().(*binBuffers)
			fn(lo, hi, buf)
			b.pool.Put(buf)
		}(lo, hi)
	}
	wg.Wait()
}
