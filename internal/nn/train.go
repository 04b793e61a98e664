package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// adamState carries the Adam optimizer moments over the flattened parameters.
type adamState struct {
	m, v []float64
	t    int
}

func newAdam(n int) *adamState {
	return &adamState{m: make([]float64, n), v: make([]float64, n)}
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// numParams returns the flattened parameter count.
func (m *Model) numParams() int { return len(m.flat) }

// Params returns a flat copy of all trainable parameters (logical weights,
// head weights, head bias), suitable for FedAvg aggregation.
func (m *Model) Params() []float64 {
	out := make([]float64, len(m.flat))
	copy(out, m.flat)
	return out
}

// SetParams overwrites all trainable parameters from a flat vector produced
// by Params (possibly averaged across clients).
func (m *Model) SetParams(p []float64) error {
	if len(p) != len(m.flat) {
		return fmt.Errorf("nn: SetParams got %d values, want %d", len(p), len(m.flat))
	}
	copy(m.flat, p)
	return nil
}

// Clone returns a deep copy of the model (including optimizer state reset).
func (m *Model) Clone() *Model {
	c, err := New(m.inDim, m.cfg)
	if err != nil {
		panic(err) // m was valid, so its config is valid
	}
	copy(c.flat, m.flat)
	return c
}

// gradBuffers holds per-worker backprop scratch space.
type gradBuffers struct {
	fwd  *fwdBuffers // continuous pass (kept for partials)
	fwdD *fwdBuffers // discrete pass (grafting)
	// gOut[k] is d loss / d layer-k output; gIn[k] the gradient flowing to
	// layer k's input vector.
	gOut [][]float64
	gIn  [][]float64
	grad []float64 // flattened, same layout as Params
	// Factor cache filled by forwardTrain and consumed by the backward
	// kernels, so the backward pass never recomputes a factor or rescans for
	// zero factors. Indexed by layer (fmat, node-major rows) and by global
	// node id (pnz/nzero/zidx).
	fmat  [][]float64
	pnz   []float64
	nzero []int32
	zidx  []int32
	// cidx[k]/didx[k] list, in ascending order, the layer-k input indices
	// the conjunction/disjunction kernels visit for the current sample; see
	// factorLists. Capacity l.inDim, refilled per sample.
	cidx [][]int32
	didx [][]int32
	// disc holds a grafted batch's compiled binarized structure. batchGrad
	// compiles it into the first worker's buffers and shares it read-only
	// with the rest; it lives here rather than in the snapshot pool so the
	// training loop stays allocation-free even where the pool drops items.
	disc discSnap
}

func (m *Model) newGradBuffers() *gradBuffers {
	gb := &gradBuffers{fwd: m.newBuffers(), fwdD: m.newBuffers(), grad: make([]float64, m.numParams())}
	for _, l := range m.layers {
		gb.gOut = append(gb.gOut, make([]float64, l.size()))
		gb.gIn = append(gb.gIn, make([]float64, l.inDim))
		gb.fmat = append(gb.fmat, make([]float64, l.size()*l.inDim))
		gb.cidx = append(gb.cidx, make([]int32, 0, l.inDim))
		gb.didx = append(gb.didx, make([]int32, 0, l.inDim))
	}
	gb.pnz = make([]float64, m.ruleDim)
	gb.nzero = make([]int32, m.ruleDim)
	gb.zidx = make([]int32, m.ruleDim)
	return gb
}

// getGradBuffers returns pooled backprop scratch; release with putGradBuffers.
func (m *Model) getGradBuffers() *gradBuffers {
	if gb, ok := m.gradPool.Get().(*gradBuffers); ok {
		return gb
	}
	return m.newGradBuffers()
}

func (m *Model) putGradBuffers(gb *gradBuffers) { m.gradPool.Put(gb) }

func sigmoid(s float64) float64 {
	if s >= 0 {
		return 1 / (1 + math.Exp(-s))
	}
	e := math.Exp(s)
	return e / (1 + e)
}

// backprop accumulates into gb.grad the gradient of the logistic loss on one
// sample. With grafting, the loss derivative is evaluated at the *binarized*
// model's score while the parameter partials come from the continuous
// forward pass — the paper's gradient grafting rule
// θ^{t+1} = θ^t − η ∂L(Ȳ)/∂Ȳ · ∂Y/∂θ^t. Grafting is on when disc (the
// batch's compiled binarized structure) is non-nil. It returns the sample
// loss.
func (m *Model) backprop(x []float64, y int, disc *discSnap, gb *gradBuffers) float64 {
	// Continuous forward fills gb.fwd with the activations used for partials
	// and caches every per-element factor for the backward kernels.
	sCont := m.forwardTrain(x, gb)
	sUsed := sCont
	if disc != nil {
		sUsed = m.forwardDiscrete(x, disc, gb.fwdD)
	}
	p := sigmoid(sUsed)
	dLds := p - float64(y)

	// Head gradients (continuous rule activations are the partials).
	// Flat layout: logical weights first, then headW, then headB.
	headOff := m.headOff
	for j, r := range gb.fwd.rules {
		gb.grad[headOff+j] += dLds * r
	}
	if !m.cfg.FreezeBias {
		gb.grad[headOff+m.ruleDim] += dLds
	}

	// Seed rule gradients.
	ri := 0
	for k, l := range m.layers {
		gOut := gb.gOut[k]
		for n := 0; n < l.size(); n++ {
			gOut[n] = dLds * m.headW[ri+n]
		}
		ri += l.size()
	}

	// Backward through layers, last to first. Layer k's input is
	// concat(x, layerOut[k-1]); the part flowing into layerOut[k-1] is added
	// to that layer's gOut. Layer weight offsets are fixed at construction
	// (logicalLayer.off), so no per-call offset table is needed.
	for k := len(m.layers) - 1; k >= 0; k-- {
		l := m.layers[k]
		in := gb.fwd.layerIn[k]
		gIn := gb.gIn[k]
		// Only the skip-concat tail of the input gradient is ever read (it
		// routes to the previous layer's outputs); the x-head — and for the
		// first layer the whole vector — is dead, so neither zeroed nor
		// accumulated.
		gxFrom := len(in)
		if k > 0 {
			gxFrom = m.inDim
			for i := m.inDim; i < len(gIn); i++ {
				gIn[i] = 0
			}
		}
		ni := layerNodeBase(m, k)
		for n := 0; n < l.size(); n++ {
			g := gb.gOut[k][n]
			if g == 0 {
				continue
			}
			w := l.row(n)
			base := l.off + n*l.inDim
			fb := gb.fmat[k][n*l.inDim : (n+1)*l.inDim]
			prodNZ, zeros, zeroIdx := gb.pnz[ni+n], gb.nzero[ni+n], gb.zidx[ni+n]
			if zeros > 1 {
				continue // every partial product contains a zero factor
			}
			if l.nodeKind(n) == nodeConj {
				conjBackward(in, w, g, gb.grad[base:base+l.inDim], gIn, gxFrom, fb, gb.cidx[k], prodNZ, zeros, zeroIdx)
			} else {
				disjBackward(in, w, g, gb.grad[base:base+l.inDim], gIn, gxFrom, fb, gb.didx[k], prodNZ, zeros, zeroIdx)
			}
		}
		if k > 0 {
			// Route the skip-concat tail into the previous layer's output grad.
			prevOut := gb.gOut[k-1]
			for n := range prevOut {
				prevOut[n] += gIn[m.inDim+n]
			}
		}
	}

	// Logistic loss value at the score the loss derivative was taken at.
	if y == 1 {
		return -math.Log(math.Max(p, 1e-12))
	}
	return -math.Log(math.Max(1-p, 1e-12))
}

const prodZeroEps = 1e-12

// layerNodeBase returns the global node id of layer k's first node.
func layerNodeBase(m *Model, k int) int {
	b := 0
	for j := 0; j < k; j++ {
		b += m.layers[j].size()
	}
	return b
}

// forwardTrain is the continuous forward pass used by backprop: the soft
// activations of Eq. 7, Conj = prod_i (1 - w_i (1 - x_i)) and
// Disj = 1 - prod_i (1 - x_i w_i). Besides the score it caches, per node,
// every visited factor (gb.fmat), the product of its non-near-zero factors
// (gb.pnz) and the near-zero bookkeeping (gb.nzero/gb.zidx) the backward
// kernels need, so the backward pass does no factor recomputation or
// rescanning at all. Factors are multiplied in ascending input order; the
// ones factorLists proves exactly 1 are skipped, which changes no bit.
func (m *Model) forwardTrain(x []float64, gb *gradBuffers) float64 {
	if len(x) != m.inDim {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), m.inDim))
	}
	m.factorLists(x, gb)
	b := gb.fwd
	ni := 0
	ri := 0
	for k, l := range m.layers {
		var in []float64
		if k == 0 {
			in = x
			b.layerIn[0] = x
		} else {
			in = b.layerIn[k]
			copy(in, x)
			copy(in[m.inDim:], b.layerOut[k-1])
		}
		out := b.layerOut[k]
		fslab := gb.fmat[k]
		for n := 0; n < l.size(); n++ {
			w := l.row(n)
			fb := fslab[n*l.inDim : (n+1)*l.inDim]
			var p, prodNZ float64
			var zeros, zeroIdx int32
			if l.nodeKind(n) == nodeConj {
				p, prodNZ, zeros, zeroIdx = conjForwardTrain(in, w, fb, gb.cidx[k])
			} else {
				p, prodNZ, zeros, zeroIdx = disjForwardTrain(in, w, fb, gb.didx[k])
				p = 1 - p
			}
			out[n] = p
			gb.pnz[ni] = prodNZ
			gb.nzero[ni] = zeros
			gb.zidx[ni] = zeroIdx
			ni++
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

// factorLists fills gb.cidx/gb.didx with, per layer, the input indices
// whose factor can differ from exactly 1: over the raw input x, the i with
// x_i != 1 for conjunctions and the i with x_i != 0 for disjunctions,
// followed by the whole skip-concat tail [inDim, len(in)) of layers k > 0.
//
// Skipping the others changes no output bit, whatever the input values
// (for finite weights): their factors 1 - w*(1-1) and 1 - 0*w are exactly
// 1.0, so leaving them out of a product changes nothing, and their weight
// gradient terms g*-(1-1)*partial and g*0*partial are ±0, which leaves
// unchanged a gradient accumulator that starts at +0 (a round-to-nearest
// sum is -0 only if both operands are). Only the x-head is filtered: the
// tail carries input gradients, which are non-zero even where its factor
// is 1. TestPropertySparseKernelsMatchDense and
// TestPropertyBackpropMatchesDense pin this against the dense kernels.
func (m *Model) factorLists(x []float64, gb *gradBuffers) {
	c, d := gb.cidx[0][:0], gb.didx[0][:0]
	for i, xi := range x {
		if xi != 1 {
			c = append(c, int32(i))
		}
		if xi != 0 {
			d = append(d, int32(i))
		}
	}
	gb.cidx[0], gb.didx[0] = c, d
	for k := 1; k < len(m.layers); k++ {
		c = append(gb.cidx[k][:0], gb.cidx[0]...)
		d = append(gb.didx[k][:0], gb.didx[0]...)
		for i := m.inDim; i < m.layers[k].inDim; i++ {
			c = append(c, int32(i))
			d = append(d, int32(i))
		}
		gb.cidx[k], gb.didx[k] = c, d
	}
}

// conjForwardTrain computes a conjunction node's raw product over the
// visited indices idx (see factorLists), fused with the backward pass's
// factor caching and zero-scan. p is the node output; prodNZ is the product
// of factors at least prodZeroEps in magnitude; zeros counts the others and
// zeroIdx is the last of them. Only fbuf[i] for i in idx is written.
func conjForwardTrain(x, w, fbuf []float64, idx []int32) (p, prodNZ float64, zeros, zeroIdx int32) {
	p = 1.0
	prodNZ = 1.0
	zeroIdx = -1
	for _, i := range idx {
		f := 1 - w[i]*(1-x[i])
		fbuf[i] = f
		p *= f
		if math.Abs(f) < prodZeroEps {
			zeros++
			zeroIdx = i
			continue
		}
		prodNZ *= f
	}
	return
}

// disjForwardTrain mirrors conjForwardTrain for disjunction factors
// G_i = 1 - x_i w_i. It returns the raw product p (the caller computes the
// node output 1-p).
func disjForwardTrain(x, w, fbuf []float64, idx []int32) (p, prodNZ float64, zeros, zeroIdx int32) {
	p = 1.0
	prodNZ = 1.0
	zeroIdx = -1
	for _, i := range idx {
		f := 1 - x[i]*w[i]
		fbuf[i] = f
		p *= f
		if math.Abs(f) < prodZeroEps {
			zeros++
			zeroIdx = i
			continue
		}
		prodNZ *= f
	}
	return
}

// conjBackward adds the conjunction node's weight and input gradients.
// out = prod_i F_i, F_i = 1 - w_i (1 - x_i);
// d out/d w_i = -(1-x_i) * prod_{j≠i} F_j; d out/d x_i = w_i * prod_{j≠i} F_j.
//
// It walks the same index list idx as conjForwardTrain: every skipped
// index's weight gradient term is ±0 (see factorLists). Input gradients are
// accumulated only for i >= gxFrom: the x-head of every layer input is raw
// data whose gradient nothing reads (only the skip-concat tail flows to the
// previous layer), and for the first layer that is the whole vector.
//
// The factors, their non-zero product and the zero bookkeeping all come
// precomputed from forwardTrain (fbuf/prodNZ/zeros/zeroIdx); the caller has
// already discarded nodes with more than one zero factor. The loops carry
// no value-dependent branch on purpose: per-element skip tests mispredict
// on real data and cost more than the arithmetic they avoid, which is why
// exact-1 factors are dropped once per sample by the index list instead.
func conjBackward(x, w []float64, g float64, gw, gx []float64, gxFrom int, fbuf []float64, idx []int32, prodNZ float64, zeros, zeroIdx int32) {
	if zeros == 1 {
		// Only the zero factor's own partial product survives.
		i := zeroIdx
		gw[i] += g * -(1 - x[i]) * prodNZ
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * prodNZ
		}
		return
	}
	if gxFrom >= len(x) {
		for _, i := range idx {
			partial := prodNZ / fbuf[i]
			gw[i] += g * -(1 - x[i]) * partial
		}
		return
	}
	for _, i := range idx {
		partial := prodNZ / fbuf[i]
		gw[i] += g * -(1 - x[i]) * partial
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * partial
		}
	}
}

// disjBackward adds the disjunction node's weight and input gradients.
// out = 1 - prod_i G_i, G_i = 1 - x_i w_i;
// d out/d w_i = x_i * prod_{j≠i} G_j; d out/d x_i = w_i * prod_{j≠i} G_j.
// Same index-list, precomputed-cache contract and structure as conjBackward.
func disjBackward(x, w []float64, g float64, gw, gx []float64, gxFrom int, fbuf []float64, idx []int32, prodNZ float64, zeros, zeroIdx int32) {
	if zeros == 1 {
		i := zeroIdx
		gw[i] += g * x[i] * prodNZ
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * prodNZ
		}
		return
	}
	if gxFrom >= len(x) {
		for _, i := range idx {
			partial := prodNZ / fbuf[i]
			gw[i] += g * x[i] * partial
		}
		return
	}
	for _, i := range idx {
		partial := prodNZ / fbuf[i]
		gw[i] += g * x[i] * partial
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * partial
		}
	}
}

// stepFused applies, in one sequential pass over the flat parameter vector:
// the L1/L2 regularization subgradients, one Adam update, and the [0,1]
// domain clamp of the logical weights, writing directly into the model's
// parameter storage. It is arithmetically element-for-element identical to
// the unfused regularize → Adam → clamp-and-copy sequence it replaced
// (each element's update chain is unchanged; only the loop structure fused),
// which TestGoldenTraining pins down bit-for-bit.
func (m *Model) stepFused(grad []float64) {
	a := m.opt
	a.t++
	bc1 := 1 - math.Pow(adamBeta1, float64(a.t))
	bc2 := 1 - math.Pow(adamBeta2, float64(a.t))
	lr := m.cfg.LearningRate
	l1, l2 := m.cfg.L1Logic, m.cfg.L2Head
	flat := m.flat
	headOff := m.headOff
	last := len(flat) - 1
	for i, g := range grad {
		logical := i < headOff
		if logical {
			if l1 != 0 && flat[i] > 0 {
				g += l1
			}
		} else if i < last && l2 != 0 {
			g += l2 * flat[i]
		}
		a.m[i] = adamBeta1*a.m[i] + (1-adamBeta1)*g
		a.v[i] = adamBeta2*a.v[i] + (1-adamBeta2)*g*g
		mhat := a.m[i] / bc1
		vhat := a.v[i] / bc2
		v := flat[i] - lr*mhat/(math.Sqrt(vhat)+adamEps)
		if logical {
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
		}
		flat[i] = v
	}
}

// TrainEpochs runs mini-batch training for the given number of epochs and
// returns the mean loss of the final epoch. It is the building block both
// for standalone training (Train) and for FedAvg local updates. Parameters
// are updated in place in the flat vector; per-batch work reuses pooled
// scratch and allocates nothing in steady state.
func (m *Model) TrainEpochs(xs [][]float64, ys []int, epochs int) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(ys)))
	}
	if len(xs) == 0 || epochs <= 0 {
		return 0
	}
	r := rand.New(rand.NewSource(m.cfg.Seed + int64(m.opt.t) + 1))
	grad := make([]float64, m.numParams())
	workers := m.workerCount()
	gbs := make([]*gradBuffers, workers)
	for i := range gbs {
		gbs[i] = m.getGradBuffers()
	}
	losses := make([]float64, workers)
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}

	// Epoch observation state, allocated only when hooks are installed so
	// the unobserved path stays allocation-free.
	hooks := m.hooks
	var selMask []bool
	if hooks != nil && hooks.OnEpoch != nil {
		selMask = make([]bool, m.headOff)
		m.selectionMask(selMask, true)
	}

	lastLoss := 0.0
	bestAcc := -1.0
	var bestParams []float64
	for ep := 0; ep < epochs; ep++ {
		var epStart time.Time
		if selMask != nil {
			epStart = time.Now()
		}
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		epochLoss := 0.0
		for start := 0; start < len(idx); start += m.cfg.BatchSize {
			end := start + m.cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			loss := m.batchGrad(xs, ys, batch, gbs, losses, grad)
			epochLoss += loss * float64(len(batch))
			m.stepFused(grad)
		}
		lastLoss = epochLoss / float64(len(idx))
		if m.cfg.KeepBest {
			if acc := m.Accuracy(xs, ys); acc > bestAcc {
				bestAcc = acc
				bestParams = m.Params()
			}
		}
		if selMask != nil {
			selected, switches := m.selectionMask(selMask, false)
			hooks.OnEpoch(EpochStats{
				Epoch:           ep + 1,
				Loss:            lastLoss,
				Elapsed:         time.Since(epStart),
				SelectedWeights: selected,
				GraftSwitches:   switches,
			})
		}
	}
	if bestParams != nil {
		copy(m.flat, bestParams)
	}
	for _, gb := range gbs {
		m.putGradBuffers(gb)
	}
	return lastLoss
}

// Train runs cfg.Epochs of training and returns the final epoch's mean loss.
func (m *Model) Train(xs [][]float64, ys []int) float64 {
	return m.TrainEpochs(xs, ys, m.cfg.Epochs)
}

// batchGrad computes the mean gradient over batch into grad (overwritten)
// and returns the mean loss. losses must have at least len(gbs) entries.
func (m *Model) batchGrad(xs [][]float64, ys []int, batch []int, gbs []*gradBuffers, losses []float64, grad []float64) float64 {
	workers := len(gbs)
	if workers > len(batch) {
		workers = len(batch)
	}
	inv := 1 / float64(len(batch))
	var disc *discSnap
	if m.cfg.Grafting {
		disc = &gbs[0].disc
		m.compileInto(disc) // weights are fixed for the whole batch
	}

	if workers <= 1 {
		// Inline fast path: small batches (and Workers=1 configs) skip the
		// goroutine machinery entirely.
		gb := gbs[0]
		for i := range gb.grad {
			gb.grad[i] = 0
		}
		sum := 0.0
		for _, s := range batch {
			sum += m.backprop(xs[s], ys[s], disc, gb)
		}
		for i, g := range gb.grad {
			grad[i] = g * inv
		}
		return sum * inv
	}

	var wg sync.WaitGroup
	chunk := (len(batch) + workers - 1) / workers
	// Ceil-chunking can leave trailing workers with empty ranges; they
	// neither run nor zero their scratch, so reduce over active ones only.
	active := (len(batch) + chunk - 1) / chunk
	for wkr := 0; wkr < active; wkr++ {
		lo := wkr * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		wg.Add(1)
		// disc is passed rather than captured: capturing the conditionally
		// assigned variable would move it to the heap on every call, even
		// on the single-worker path.
		go func(wkr, lo, hi int, disc *discSnap) {
			defer wg.Done()
			gb := gbs[wkr]
			for i := range gb.grad {
				gb.grad[i] = 0
			}
			sum := 0.0
			for _, s := range batch[lo:hi] {
				sum += m.backprop(xs[s], ys[s], disc, gb)
			}
			losses[wkr] = sum
		}(wkr, lo, hi, disc)
	}
	wg.Wait()

	for i := range grad {
		g := 0.0
		for wkr := 0; wkr < active; wkr++ {
			g += gbs[wkr].grad[i]
		}
		grad[i] = g * inv
	}
	total := 0.0
	for wkr := 0; wkr < active; wkr++ {
		total += losses[wkr]
	}
	return total * inv
}

func (m *Model) workerCount() int {
	if m.cfg.Workers > 0 {
		return m.cfg.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// parallelOver splits n items across workers, giving each worker pooled
// forward buffers, and calls fn with the worker's half-open index range.
func (m *Model) parallelOver(n int, fn func(lo, hi int, buf *fwdBuffers)) {
	if n == 0 {
		return
	}
	workers := m.workerCount()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		buf := m.getBuffers()
		fn(0, n, buf)
		m.putBuffers(buf)
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
			buf := m.getBuffers()
			fn(lo, hi, buf)
			m.putBuffers(buf)
		}(lo, hi)
	}
	wg.Wait()
}
