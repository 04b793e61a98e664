// Package nn implements the practical rule-based model of CTFL Section V: a
// logical neural network whose hidden nodes compute soft conjunctions and
// disjunctions over encoded predicates (Eq. 7), topped by a linear voting
// head, and trained with gradient grafting so that the deployed model has
// hard {0,1} logical weights and therefore produces non-fuzzy, traceable
// rules.
//
// Architecture (paper Fig. 3):
//
//	encoded predicates (from dataset.Encoder; the binarization layer with
//	random bounds lives there)
//	  -> logical layer 1 (half conjunction, half disjunction nodes)
//	  -> ... optional further logical layers with skip connections ...
//	  -> linear head over the concatenation of all logical layers' outputs
//
// The classification rule is the paper's Eq. 3: nodes whose head weight is
// positive act as positive rules r+, negative head weights as negative rules
// r-, and the model predicts the positive class iff the weighted vote
// crosses the bias threshold.
//
// Parameter storage is one contiguous flat vector (see Model.flat): each
// logical layer's weights occupy a row-major block, followed by the head
// weights and the head bias. Training updates the flat vector in place, so
// Params/SetParams are single copies and the Adam step streams sequentially
// through memory.
package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Config controls model shape and training.
type Config struct {
	// Hidden lists the node count of each logical layer. Each layer is split
	// half conjunction / half disjunction nodes. Default: one layer of 64.
	Hidden []int
	// LearningRate for Adam. Default 0.05.
	LearningRate float64
	// Epochs of local training. Default 60.
	Epochs int
	// BatchSize for mini-batch SGD. Default 64.
	BatchSize int
	// Grafting selects gradient-grafted training of the binarized model
	// (the paper's method). When false, training optimizes the continuous
	// model and binarizes post hoc — the ablation baseline.
	Grafting bool
	// L1Logic applies an L1 penalty to the logical weights, pruning rule
	// operands so the extracted rules stay crisp and small. Default 0.
	L1Logic float64
	// L2Head applies weight decay to the linear head, keeping rule
	// importance weights bounded. Default 0.
	L2Head float64
	// FreezeBias pins the head bias at zero, making the deployed model
	// exactly the paper's Eq. 3 vote 1[w+·r+ >= w−·r−]. Without a bias the
	// model cannot fall back on a majority-class default, so every
	// prediction is carried by activated rules and stays traceable.
	FreezeBias bool
	// KeepBest restores, at the end of each TrainEpochs call, the parameter
	// snapshot with the highest binarized training accuracy seen after any
	// epoch. Grafted training of hard-threshold models is non-monotone; the
	// deployed model is the binarized one, so selecting its best snapshot is
	// the natural stopping rule.
	KeepBest bool
	// Seed for weight initialization and batch shuffling.
	Seed int64
	// Workers bounds the goroutines used for batch-parallel gradient
	// computation; 0 means GOMAXPROCS.
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 60
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	return c
}

// layerKind tags each logical node.
const (
	nodeConj = iota
	nodeDisj
)

// logicalLayer describes one layer's shape and where its weight block lives
// in the model's flat parameter vector. w[n*inDim+i] is the involvement
// degree of input i in node n, constrained to [0,1].
type logicalLayer struct {
	inDim   int
	numConj int
	numDisj int
	// off is the flat-vector offset of this layer's weight block; w is the
	// block itself, aliasing Model.flat[off : off+size()*inDim].
	off int
	w   []float64
}

func (l *logicalLayer) size() int { return l.numConj + l.numDisj }

// row returns node n's weight row (a view into the flat vector).
func (l *logicalLayer) row(n int) []float64 {
	return l.w[n*l.inDim : (n+1)*l.inDim]
}

// nodeKind reports whether node n is a conjunction or disjunction node.
func (l *logicalLayer) nodeKind(n int) int {
	if n < l.numConj {
		return nodeConj
	}
	return nodeDisj
}

// Model is a logical neural network for binary classification.
type Model struct {
	cfg    Config
	inDim  int
	layers []*logicalLayer
	// ruleDim is the total number of logical nodes across layers = the
	// number of candidate rules.
	ruleDim int
	// flat holds every trainable parameter contiguously: the layers' weight
	// blocks in order (row-major per node), then the head weights over rule
	// activations, then the head bias. layers[k].w and headW alias into it.
	flat []float64
	// headOff is the flat offset of the head weights; the bias sits at
	// flat[len(flat)-1].
	headOff int
	// headW aliases flat[headOff : headOff+ruleDim]. The head stays
	// continuous (the paper binarizes every layer except the one feeding the
	// linear classifier).
	headW []float64

	opt *adamState

	// bufPool and gradPool recycle forward/backprop scratch buffers across
	// calls, so steady-state batch work allocates nothing. Buffers depend
	// only on the (immutable) model shape, so pooled entries never go stale.
	// snapPool recycles discSnap storage; a snapshot is recompiled on every
	// use, so its contents never go stale either.
	bufPool  sync.Pool
	gradPool sync.Pool
	snapPool sync.Pool

	// hooks observes training per epoch; nil (the default) keeps the
	// training loop free of any telemetry work. See SetTrainHooks.
	hooks *TrainHooks
}

// New creates a model for inputs of width inDim using cfg.
func New(inDim int, cfg Config) (*Model, error) {
	if inDim <= 0 {
		return nil, fmt.Errorf("nn: inDim must be positive, got %d", inDim)
	}
	cfg = cfg.withDefaults()
	for i, h := range cfg.Hidden {
		if h < 2 {
			return nil, fmt.Errorf("nn: hidden layer %d has %d nodes, need >= 2", i, h)
		}
	}
	m := &Model{cfg: cfg, inDim: inDim}

	// Shape pass: compute layer offsets and the total parameter count, then
	// carve the flat vector into per-layer views.
	total := 0
	prev := inDim
	for _, h := range cfg.Hidden {
		l := &logicalLayer{inDim: prev, numConj: h / 2, numDisj: h - h/2, off: total}
		m.layers = append(m.layers, l)
		total += h * prev
		m.ruleDim += h
		// Skip connection: the next layer sees the original predicates too.
		prev = inDim + h
	}
	m.headOff = total
	total += m.ruleDim + 1 // head weights + bias
	m.flat = make([]float64, total)
	for _, l := range m.layers {
		l.w = m.flat[l.off : l.off+l.size()*l.inDim]
	}
	m.headW = m.flat[m.headOff : m.headOff+m.ruleDim]

	r := rand.New(rand.NewSource(cfg.Seed))
	for _, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			w := l.row(n)
			for i := range w {
				// Small positive init keeps soft products near their neutral
				// element so early gradients do not vanish; a few weights are
				// seeded above the 0.5 binarization threshold so the grafted
				// (discrete) model is non-constant from the start.
				w[i] = r.Float64() * 0.2
				if r.Float64() < 2.0/float64(l.inDim) {
					w[i] = 0.5 + r.Float64()*0.3
				}
			}
		}
	}
	for i := range m.headW {
		m.headW[i] = (r.Float64() - 0.5) * 0.2
	}
	m.opt = newAdam(m.numParams())
	return m, nil
}

// InDim returns the expected input width.
func (m *Model) InDim() int { return m.inDim }

// RuleDim returns the number of candidate rules (logical nodes).
func (m *Model) RuleDim() int { return m.ruleDim }

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// HeadWeights returns the linear head weights over rule activations (live
// slice; callers must not modify).
func (m *Model) HeadWeights() []float64 { return m.headW }

// HeadBias returns the linear head bias.
func (m *Model) HeadBias() float64 { return m.flat[len(m.flat)-1] }

// fwdBuffers holds per-sample forward activations reused across calls.
type fwdBuffers struct {
	// layerIn[k] is the input vector to layer k (with skip concat),
	// layerOut[k] its output.
	layerIn  [][]float64
	layerOut [][]float64
	rules    []float64
}

func (m *Model) newBuffers() *fwdBuffers {
	b := &fwdBuffers{rules: make([]float64, m.ruleDim)}
	prev := m.inDim
	for _, l := range m.layers {
		b.layerIn = append(b.layerIn, make([]float64, prev))
		b.layerOut = append(b.layerOut, make([]float64, l.size()))
		prev = m.inDim + l.size()
	}
	return b
}

// getBuffers returns pooled forward buffers; release with putBuffers.
func (m *Model) getBuffers() *fwdBuffers {
	if b, ok := m.bufPool.Get().(*fwdBuffers); ok {
		return b
	}
	return m.newBuffers()
}

func (m *Model) putBuffers(b *fwdBuffers) { m.bufPool.Put(b) }

// discSnap is a compiled snapshot of the binarized network structure: per
// logical node, the input indices its weight selects (w > 0.5), concatenated
// into one slab. It is the single place the model decides which weights are
// selected: the discrete entry points, grafted training, Binarize and
// RuleSpecs all read their selections from it. Weights are fixed for the
// lifetime of one snapshot, so it is compiled once per call (or per batch,
// in grafted training) and shared read-only by every worker of that call.
type discSnap struct {
	sel []int32 // concatenated selected indices, per node
	off []int32 // node -> [off[n], off[n+1]) into sel; len = ruleDim+1
}

// node returns global node ni's selected input indices.
func (d *discSnap) node(ni int) []int32 { return d.sel[d.off[ni]:d.off[ni+1]] }

// compileInto rebuilds d from the current weights. Once d's slab has grown
// to the selection size it allocates nothing: the slab is reused and only
// regrows while binarization is still selecting new weights.
func (m *Model) compileInto(d *discSnap) {
	d.sel = d.sel[:0]
	if d.off == nil {
		d.off = make([]int32, m.ruleDim+1)
	}
	ni := 0
	for _, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			for i, w := range l.row(n) {
				if w > 0.5 {
					d.sel = append(d.sel, int32(i))
				}
			}
			ni++
			d.off[ni] = int32(len(d.sel))
		}
	}
}

// compile returns a pooled snapshot of the current weights; release it with
// putSnap once the call that compiled it is done evaluating.
func (m *Model) compile() *discSnap {
	d, _ := m.snapPool.Get().(*discSnap)
	if d == nil {
		d = new(discSnap)
	}
	m.compileInto(d)
	return d
}

func (m *Model) putSnap(d *discSnap) { m.snapPool.Put(d) }

// forwardDiscrete computes the deployed (binarized) model's pre-sigmoid
// score of x, walking only the indices snapshot d selects. Every node's
// product runs over the selected inputs in ascending order with early
// exits, so unselected weights cost nothing; the result is bit-identical to
// a dense scan that tests w > 0.5 at every weight (the reference kept in
// equivalence_test.go, pinned by TestPropertyCompiledMatchesDense).
func (m *Model) forwardDiscrete(x []float64, d *discSnap, b *fwdBuffers) float64 {
	if len(x) != m.inDim {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), m.inDim))
	}
	ni := 0
	ri := 0
	for k, l := range m.layers {
		var in []float64
		if k == 0 {
			// Alias the caller's input instead of copying: the buffer entry is
			// only ever read, never written through.
			in = x
			b.layerIn[0] = x
		} else {
			in = b.layerIn[k]
			copy(in, x)
			copy(in[m.inDim:], b.layerOut[k-1])
		}
		out := b.layerOut[k]
		for n := 0; n < l.size(); n++ {
			sel := d.node(ni)
			ni++
			if l.nodeKind(n) == nodeConj {
				p := 1.0
				for _, i := range sel {
					p *= in[i]
					if p == 0 {
						p = 0 // normalize a -0 product to +0
						break
					}
				}
				out[n] = p
			} else {
				v := 0.0
				for _, i := range sel {
					if in[i] > 0 {
						v = 1
						break
					}
				}
				out[n] = v
			}
		}
		copy(b.rules[ri:ri+l.size()], out)
		ri += l.size()
	}
	s := m.flat[len(m.flat)-1]
	for j, r := range b.rules {
		s += m.headW[j] * r
	}
	return s
}

// Score returns the deployed (binarized) model's pre-threshold score for x:
// positive score means the positive class wins the rule vote of Eq. 3.
func (m *Model) Score(x []float64) float64 {
	d := m.compile()
	b := m.getBuffers()
	s := m.forwardDiscrete(x, d, b)
	m.putBuffers(b)
	m.putSnap(d)
	return s
}

// Predict returns the deployed model's label for x.
func (m *Model) Predict(x []float64) int {
	if m.Score(x) >= 0 {
		return 1
	}
	return 0
}

// PredictBatch labels every row of xs using parallel workers.
func (m *Model) PredictBatch(xs [][]float64) []int {
	out := make([]int, len(xs))
	d := m.compile()
	m.parallelOver(len(xs), func(lo, hi int, buf *fwdBuffers) {
		for i := lo; i < hi; i++ {
			if m.forwardDiscrete(xs[i], d, buf) >= 0 {
				out[i] = 1
			}
		}
	})
	m.putSnap(d)
	return out
}

// Accuracy returns the deployed model's accuracy on (xs, ys). Predictions
// are counted in place rather than materialized: callers like the streaming
// valuation engine evaluate thousands of coalitions per round, and a
// per-call prediction slice is pure GC pressure. The integer hit counts are
// order-independent, so the result is identical at any worker count.
func (m *Model) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var ok atomic.Int64
	d := m.compile()
	m.parallelOver(len(xs), func(lo, hi int, buf *fwdBuffers) {
		n := 0
		for i := lo; i < hi; i++ {
			p := 0
			if m.forwardDiscrete(xs[i], d, buf) >= 0 {
				p = 1
			}
			if p == ys[i] {
				n++
			}
		}
		ok.Add(int64(n))
	})
	m.putSnap(d)
	return float64(ok.Load()) / float64(len(xs))
}

// CountCorrect returns how many rows of xs the deployed model labels as
// ys. Serial and allocation-free in steady state (pooled forward buffers,
// no prediction slice, no worker fan-out): the streaming valuation engine's
// per-coalition scorer, where concurrency already lives above the model and
// any per-call allocation multiplies across thousands of evaluations.
func (m *Model) CountCorrect(xs [][]float64, ys []int) int {
	d := m.compile()
	buf := m.getBuffers()
	ok := 0
	for i, x := range xs {
		p := 0
		if m.forwardDiscrete(x, d, buf) >= 0 {
			p = 1
		}
		if p == ys[i] {
			ok++
		}
	}
	m.putBuffers(buf)
	m.putSnap(d)
	return ok
}

// RuleActivations fills dst (length RuleDim) with the binarized model's
// {0,1} rule activation vector for x and returns it. This is the vector
// CTFL's tracer consumes.
func (m *Model) RuleActivations(x []float64, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.ruleDim)
	}
	d := m.compile()
	b := m.getBuffers()
	m.forwardDiscrete(x, d, b)
	copy(dst, b.rules)
	m.putBuffers(b)
	m.putSnap(d)
	return dst
}

// ScoreAndActivationsBatch computes, in one parallel pass over xs, the
// deployed model's pre-threshold scores and {0,1} rule-activation vectors.
// It is the batched form of Score + RuleActivations used by the tracer,
// avoiding one redundant forward pass and per-row buffer allocation.
func (m *Model) ScoreAndActivationsBatch(xs [][]float64) (scores []float64, acts [][]float64) {
	scores = make([]float64, len(xs))
	acts = make([][]float64, len(xs))
	// One contiguous slab for all activation rows keeps the result cache
	// friendly and cuts per-row allocations.
	slab := make([]float64, len(xs)*m.ruleDim)
	d := m.compile()
	m.parallelOver(len(xs), func(lo, hi int, buf *fwdBuffers) {
		for i := lo; i < hi; i++ {
			scores[i] = m.forwardDiscrete(xs[i], d, buf)
			row := slab[i*m.ruleDim : (i+1)*m.ruleDim : (i+1)*m.ruleDim]
			copy(row, buf.rules)
			acts[i] = row
		}
	})
	m.putSnap(d)
	return scores, acts
}

// RuleSpec describes one logical node of the deployed model for the rule
// extractor: which layer it lives in, its kind, and which input indices its
// binarized weights select.
type RuleSpec struct {
	Layer    int
	Node     int
	Conj     bool
	Selected []int // indices into the layer's input vector
}

// RuleSpecs enumerates every logical node's binarized structure, in rule
// vector order (layer by layer).
func (m *Model) RuleSpecs() []RuleSpec {
	d := m.compile()
	defer m.putSnap(d)
	var specs []RuleSpec
	ni := 0
	for k, l := range m.layers {
		for n := 0; n < l.size(); n++ {
			spec := RuleSpec{Layer: k, Node: n, Conj: l.nodeKind(n) == nodeConj}
			for _, i := range d.node(ni) {
				spec.Selected = append(spec.Selected, int(i))
			}
			ni++
			specs = append(specs, spec)
		}
	}
	return specs
}
