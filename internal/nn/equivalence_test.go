package nn

// Equivalence tests for the flat-parameter training kernel and the compiled
// discrete evaluator. Each optimized path is checked bit for bit against a
// straight port of the code it replaced, kept here as the reference:
//
//   - the fused regularize+Adam+clamp step against the unfused seed
//     sequence (regularize the gradient, plain Adam, clamp);
//   - the exact-1-skipping train kernels against the dense kernels that
//     visit every factor, on inputs that include fractional values;
//   - every discrete Model entry point against the dense forward pass that
//     tests w > 0.5 at every weight of every sample.
//
// Full training runs must also be bit-deterministic across repeats despite
// buffer pooling and worker parallelism. Together with TestGoldenTraining
// (which pins hashes captured from the pre-overhaul implementation) this
// establishes the optimizations changed performance only, never a single
// output bit.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// forward is the dense reference forward pass: it computes the score of x
// with every weight of every node visited. When discrete is true the
// logical weights are binarized at 0.5 (the deployed model); otherwise the
// soft continuous activations of Eq. 7 are used. Returns the pre-sigmoid
// score; b.rules holds the rule activations.
func (m *Model) forward(x []float64, discrete bool, b *fwdBuffers) float64 {
	if len(x) != m.inDim {
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), m.inDim))
	}
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
		for n := 0; n < l.size(); n++ {
			w := l.row(n)
			if l.nodeKind(n) == nodeConj {
				out[n] = conjForward(in, w, discrete)
			} else {
				out[n] = disjForward(in, w, discrete)
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

// conjForward computes Conj(x,w) = prod_i (1 - w_i (1 - x_i)), or in
// discrete mode the product of the x_i whose weight exceeds 0.5.
func conjForward(x, w []float64, discrete bool) float64 {
	p := 1.0
	if discrete {
		for i, xi := range x {
			if w[i] > 0.5 {
				p *= xi
				if p == 0 {
					return 0
				}
			}
		}
		return p
	}
	for i, xi := range x {
		p *= 1 - w[i]*(1-xi)
	}
	return p
}

// disjForward computes Disj(x,w) = 1 - prod_i (1 - x_i w_i), or in discrete
// mode 1 iff some x_i whose weight exceeds 0.5 is positive.
func disjForward(x, w []float64, discrete bool) float64 {
	p := 1.0
	if discrete {
		for i, xi := range x {
			if w[i] > 0.5 && xi > 0 {
				return 1
			}
		}
		return 1 - p
	}
	for i, xi := range x {
		p *= 1 - xi*w[i]
	}
	return 1 - p
}

// denseConjForwardTrain is the train forward kernel before exact-1 factors
// were skipped: it visits, caches and multiplies every factor.
func denseConjForwardTrain(x, w, fbuf []float64) (p, prodNZ float64, zeros, zeroIdx int32) {
	p = 1.0
	prodNZ = 1.0
	zeroIdx = -1
	for i, xi := range x {
		f := 1 - w[i]*(1-xi)
		fbuf[i] = f
		p *= f
		if math.Abs(f) < prodZeroEps {
			zeros++
			zeroIdx = int32(i)
			continue
		}
		prodNZ *= f
	}
	return
}

// denseDisjForwardTrain mirrors denseConjForwardTrain for G_i = 1 - x_i w_i.
func denseDisjForwardTrain(x, w, fbuf []float64) (p, prodNZ float64, zeros, zeroIdx int32) {
	p = 1.0
	prodNZ = 1.0
	zeroIdx = -1
	for i, xi := range x {
		f := 1 - xi*w[i]
		fbuf[i] = f
		p *= f
		if math.Abs(f) < prodZeroEps {
			zeros++
			zeroIdx = int32(i)
			continue
		}
		prodNZ *= f
	}
	return
}

// denseConjBackward is the conjunction backward kernel over every factor.
func denseConjBackward(x, w []float64, g float64, gw, gx []float64, gxFrom int, fbuf []float64, prodNZ float64, zeros, zeroIdx int32) {
	if zeros == 1 {
		i := zeroIdx
		gw[i] += g * -(1 - x[i]) * prodNZ
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * prodNZ
		}
		return
	}
	for i, f := range fbuf[:len(x)] {
		partial := prodNZ / f
		gw[i] += g * -(1 - x[i]) * partial
		if i >= gxFrom {
			gx[i] += g * w[i] * partial
		}
	}
}

// denseDisjBackward is the disjunction backward kernel over every factor.
func denseDisjBackward(x, w []float64, g float64, gw, gx []float64, gxFrom int, fbuf []float64, prodNZ float64, zeros, zeroIdx int32) {
	if zeros == 1 {
		i := zeroIdx
		gw[i] += g * x[i] * prodNZ
		if int(i) >= gxFrom {
			gx[i] += g * w[i] * prodNZ
		}
		return
	}
	for i, f := range fbuf[:len(x)] {
		partial := prodNZ / f
		gw[i] += g * x[i] * partial
		if i >= gxFrom {
			gx[i] += g * w[i] * partial
		}
	}
}

// referenceBackprop is backprop built from the dense kernels and the dense
// forward pass: it accumulates one sample's gradient into grad and returns
// the sample loss. With grafted set the loss derivative is taken at the
// dense discrete score.
func referenceBackprop(m *Model, x []float64, y int, grafted bool, grad []float64) float64 {
	type nodeCache struct {
		prodNZ        float64
		zeros, zeroIx int32
	}
	ins := make([][]float64, len(m.layers))
	outs := make([][]float64, len(m.layers))
	fbs := make([][]float64, len(m.layers))
	caches := make([][]nodeCache, len(m.layers))
	var rules []float64
	for k, l := range m.layers {
		in := x
		if k > 0 {
			in = append(append([]float64(nil), x...), outs[k-1]...)
		}
		ins[k] = in
		outs[k] = make([]float64, l.size())
		fbs[k] = make([]float64, l.size()*l.inDim)
		caches[k] = make([]nodeCache, l.size())
		for n := 0; n < l.size(); n++ {
			fb := fbs[k][n*l.inDim : (n+1)*l.inDim]
			var p float64
			c := &caches[k][n]
			if l.nodeKind(n) == nodeConj {
				p, c.prodNZ, c.zeros, c.zeroIx = denseConjForwardTrain(in, l.row(n), fb)
			} else {
				p, c.prodNZ, c.zeros, c.zeroIx = denseDisjForwardTrain(in, l.row(n), fb)
				p = 1 - p
			}
			outs[k][n] = p
		}
		rules = append(rules, outs[k]...)
	}
	s := m.flat[len(m.flat)-1]
	for j, r := range rules {
		s += m.headW[j] * r
	}
	if grafted {
		s = m.forward(x, true, m.newBuffers())
	}
	p := sigmoid(s)
	dLds := p - float64(y)
	for j, r := range rules {
		grad[m.headOff+j] += dLds * r
	}
	if !m.cfg.FreezeBias {
		grad[m.headOff+m.ruleDim] += dLds
	}
	gOut := make([][]float64, len(m.layers))
	ri := 0
	for k, l := range m.layers {
		gOut[k] = make([]float64, l.size())
		for n := range gOut[k] {
			gOut[k][n] = dLds * m.headW[ri+n]
		}
		ri += l.size()
	}
	for k := len(m.layers) - 1; k >= 0; k-- {
		l := m.layers[k]
		in := ins[k]
		gIn := make([]float64, l.inDim)
		gxFrom := len(in)
		if k > 0 {
			gxFrom = m.inDim
		}
		for n := 0; n < l.size(); n++ {
			g := gOut[k][n]
			c := caches[k][n]
			if g == 0 || c.zeros > 1 {
				continue
			}
			base := l.off + n*l.inDim
			fb := fbs[k][n*l.inDim : (n+1)*l.inDim]
			if l.nodeKind(n) == nodeConj {
				denseConjBackward(in, l.row(n), g, grad[base:base+l.inDim], gIn, gxFrom, fb, c.prodNZ, c.zeros, c.zeroIx)
			} else {
				denseDisjBackward(in, l.row(n), g, grad[base:base+l.inDim], gIn, gxFrom, fb, c.prodNZ, c.zeros, c.zeroIx)
			}
		}
		if k > 0 {
			for n := range gOut[k-1] {
				gOut[k-1][n] += gIn[m.inDim+n]
			}
		}
	}
	if y == 1 {
		return -math.Log(math.Max(p, 1e-12))
	}
	return -math.Log(math.Max(1-p, 1e-12))
}

// mixedValue draws from the value classes the exact-1 skip must handle:
// exact 0 and 1, values a hair away from them (near-zero factors without
// exact zeros), and arbitrary fractions.
func mixedValue(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 1e-13
	case 3:
		return 1 - 1e-13
	default:
		return r.Float64()
	}
}

// sameBits reports whether a and b are equal bit for bit (so +0 != -0).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPropertySparseKernelsMatchDense checks the exact-1-skipping train
// kernels, fed the index lists factorLists builds, against the dense
// kernels bit for bit: the node output p, prodNZ, zeros/zeroIdx, and every
// weight and input gradient entry. Inputs mix exact 0/1 with fractional
// values; weights include exact 0 and 1; and one or two near-zero factors
// are planted in the x-head or in the skip-concat tail of a second layer.
func TestPropertySparseKernelsMatchDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inDim := 1 + r.Intn(10)
		conj := r.Intn(2) == 0
		// tail == 0 tests a first-layer node; otherwise a second-layer node
		// whose input is x followed by tail previous-layer outputs.
		tail := 0
		hidden := []int{2}
		if r.Intn(2) == 1 {
			tail = 2 + r.Intn(6)
			hidden = []int{tail, 2}
		}
		m, err := New(inDim, Config{Hidden: hidden, Seed: r.Int63()})
		if err != nil {
			panic(err)
		}
		in := make([]float64, inDim+tail)
		w := make([]float64, inDim+tail)
		for i := range in {
			in[i] = mixedValue(r)
			w[i] = mixedValue(r)
		}
		for z := r.Intn(3); z > 0; z-- {
			// A conjunction factor vanishes at w=1, x≈0; a disjunction
			// factor at w=1, x≈1.
			i := r.Intn(len(in))
			w[i] = 1
			if conj {
				in[i] = []float64{0, 1e-13}[r.Intn(2)]
			} else {
				in[i] = []float64{1, 1 - 1e-13}[r.Intn(2)]
			}
		}
		gb := m.newGradBuffers()
		m.factorLists(in[:inDim], gb)
		k := len(hidden) - 1
		idx := gb.didx[k]
		if conj {
			idx = gb.cidx[k]
		}
		fbS, fbD := make([]float64, len(in)), make([]float64, len(in))
		var pS, nzS, pD, nzD float64
		var zS, ziS, zD, ziD int32
		if conj {
			pS, nzS, zS, ziS = conjForwardTrain(in, w, fbS, idx)
			pD, nzD, zD, ziD = denseConjForwardTrain(in, w, fbD)
		} else {
			pS, nzS, zS, ziS = disjForwardTrain(in, w, fbS, idx)
			pD, nzD, zD, ziD = denseDisjForwardTrain(in, w, fbD)
		}
		if !sameBits([]float64{pS, nzS}, []float64{pD, nzD}) || zS != zD || ziS != ziD {
			return false
		}
		if zD > 1 {
			return true // backprop skips such nodes before any kernel runs
		}
		// Accumulators as mid-batch: +0 or an earlier sample's contribution.
		gwS, gxS := make([]float64, len(in)), make([]float64, len(in))
		for i := range gwS {
			if r.Intn(2) == 1 {
				gwS[i] = r.NormFloat64()
				gxS[i] = r.NormFloat64()
			}
		}
		gwD, gxD := append([]float64(nil), gwS...), append([]float64(nil), gxS...)
		g := r.NormFloat64()
		gxFrom := len(in)
		if tail > 0 {
			gxFrom = inDim
		}
		if conj {
			conjBackward(in, w, g, gwS, gxS, gxFrom, fbS, idx, nzS, zS, ziS)
			denseConjBackward(in, w, g, gwD, gxD, gxFrom, fbD, nzD, zD, ziD)
		} else {
			disjBackward(in, w, g, gwS, gxS, gxFrom, fbS, idx, nzS, zS, ziS)
			denseDisjBackward(in, w, g, gwD, gxD, gxFrom, fbD, nzD, zD, ziD)
		}
		return sameBits(gwS, gwD) && sameBits(gxS, gxD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBackpropMatchesDense runs backprop end to end on one- and
// two-layer models, grafted and continuous, over several samples
// accumulated into one gradient, and checks every gradient entry and loss
// against referenceBackprop bit for bit.
func TestPropertyBackpropMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inDim := 2 + r.Intn(10)
		cfg := Config{Hidden: []int{2 + r.Intn(6)}, Seed: r.Int63(), FreezeBias: r.Intn(2) == 1}
		if r.Intn(2) == 1 {
			cfg.Hidden = append(cfg.Hidden, 2+r.Intn(6))
		}
		m, err := New(inDim, cfg)
		if err != nil {
			panic(err)
		}
		p := m.Params()
		for i := range p[:m.headOff] {
			p[i] = mixedValue(r)
		}
		for i := m.headOff; i < len(p); i++ {
			p[i] = r.NormFloat64()
		}
		if err := m.SetParams(p); err != nil {
			panic(err)
		}
		var disc *discSnap
		if r.Intn(2) == 1 {
			disc = m.compile()
		}
		gb := m.newGradBuffers()
		want := make([]float64, m.numParams())
		for s := 0; s < 1+r.Intn(4); s++ {
			x := make([]float64, inDim)
			for i := range x {
				x[i] = mixedValue(r)
			}
			y := r.Intn(2)
			got := m.backprop(x, y, disc, gb)
			if ref := referenceBackprop(m, x, y, disc != nil, want); math.Float64bits(got) != math.Float64bits(ref) {
				return false
			}
		}
		return sameBits(gb.grad, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompiledMatchesDense checks all seven discrete Model entry
// points (Score, Predict, PredictBatch, Accuracy, CountCorrect,
// RuleActivations, ScoreAndActivationsBatch), plus RuleSpecs' selections,
// against the dense reference forward pass bit for bit, on random models
// whose weights sit on and around the 0.5 threshold and on inputs that
// include fractional values.
func TestPropertyCompiledMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inDim := 1 + r.Intn(12)
		cfg := Config{Hidden: []int{2 + r.Intn(8)}, Seed: r.Int63(), Workers: 1 + r.Intn(4)}
		if r.Intn(2) == 1 {
			cfg.Hidden = append(cfg.Hidden, 2+r.Intn(6))
		}
		m, err := New(inDim, cfg)
		if err != nil {
			panic(err)
		}
		p := m.Params()
		for i := range p[:m.headOff] {
			p[i] = []float64{0, 0.5, math.Nextafter(0.5, 1), 1, r.Float64()}[r.Intn(5)]
		}
		for i := m.headOff; i < len(p); i++ {
			p[i] = r.NormFloat64()
		}
		if err := m.SetParams(p); err != nil {
			panic(err)
		}
		xs := make([][]float64, 1+r.Intn(30))
		ys := make([]int, len(xs))
		for n := range xs {
			xs[n] = make([]float64, inDim)
			for i := range xs[n] {
				xs[n][i] = mixedValue(r)
			}
			ys[n] = r.Intn(2)
		}

		b := m.newBuffers()
		wantScores := make([]float64, len(xs))
		wantActs := make([][]float64, len(xs))
		wantLabels := make([]int, len(xs))
		correct := 0
		for n, x := range xs {
			wantScores[n] = m.forward(x, true, b)
			wantActs[n] = append([]float64(nil), b.rules...)
			if wantScores[n] >= 0 {
				wantLabels[n] = 1
			}
			if wantLabels[n] == ys[n] {
				correct++
			}
		}

		gotScores, gotActs := m.ScoreAndActivationsBatch(xs)
		labels := m.PredictBatch(xs)
		for n, x := range xs {
			if !sameBits([]float64{m.Score(x), gotScores[n]}, []float64{wantScores[n], wantScores[n]}) ||
				!sameBits(m.RuleActivations(x, nil), wantActs[n]) || !sameBits(gotActs[n], wantActs[n]) ||
				m.Predict(x) != wantLabels[n] || labels[n] != wantLabels[n] {
				return false
			}
		}
		if m.CountCorrect(xs, ys) != correct || m.Accuracy(xs, ys) != float64(correct)/float64(len(xs)) {
			return false
		}

		specs := m.RuleSpecs()
		ni := 0
		for _, l := range m.layers {
			for n := 0; n < l.size(); n++ {
				var want []int
				for i, w := range l.row(n) {
					if w > 0.5 {
						want = append(want, i)
					}
				}
				if fmt.Sprint(specs[ni].Selected) != fmt.Sprint(want) || (want == nil) != (specs[ni].Selected == nil) {
					return false
				}
				ni++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// referenceStep is the seed's unfused update: regularize a copy of the
// gradient, apply Adam over the full vector, then clamp logical weights to
// [0,1]. flat, am, av are updated in place; t is the post-increment Adam
// step count.
func referenceStep(flat, grad, am, av []float64, t, headOff int, lr, l1, l2 float64) {
	last := len(flat) - 1
	g := append([]float64(nil), grad...)
	for i := 0; i < headOff; i++ {
		if l1 != 0 && flat[i] > 0 {
			g[i] += l1
		}
	}
	if l2 != 0 {
		for i := headOff; i < last; i++ {
			g[i] += l2 * flat[i]
		}
	}
	bc1 := 1 - math.Pow(adamBeta1, float64(t))
	bc2 := 1 - math.Pow(adamBeta2, float64(t))
	for i := range flat {
		am[i] = adamBeta1*am[i] + (1-adamBeta1)*g[i]
		av[i] = adamBeta2*av[i] + (1-adamBeta2)*g[i]*g[i]
		mhat := am[i] / bc1
		vhat := av[i] / bc2
		flat[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
	}
	for i := 0; i < headOff; i++ {
		if flat[i] < 0 {
			flat[i] = 0
		} else if flat[i] > 1 {
			flat[i] = 1
		}
	}
}

func TestPropertyFusedStepMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Hidden:       []int{4 + 2*r.Intn(4)},
			LearningRate: 0.01 + r.Float64()*0.1,
			Seed:         r.Int63(),
		}
		if r.Intn(2) == 1 {
			cfg.Hidden = append(cfg.Hidden, 4+2*r.Intn(3))
		}
		if r.Intn(2) == 1 {
			cfg.L1Logic = r.Float64() * 1e-3
		}
		if r.Intn(2) == 1 {
			cfg.L2Head = r.Float64() * 1e-2
		}
		m, err := New(3+r.Intn(8), cfg)
		if err != nil {
			panic(err)
		}
		n := m.numParams()
		grad := make([]float64, n)
		for i := range grad {
			grad[i] = r.NormFloat64()
		}
		// Random optimizer pre-state, as mid-training would have.
		steps := r.Intn(50)
		for i := 0; i < n; i++ {
			m.opt.m[i] = r.NormFloat64() * 0.1
			m.opt.v[i] = r.Float64() * 0.01
		}
		m.opt.t = steps

		wantFlat := append([]float64(nil), m.flat...)
		wantM := append([]float64(nil), m.opt.m...)
		wantV := append([]float64(nil), m.opt.v...)
		referenceStep(wantFlat, grad, wantM, wantV, steps+1, m.headOff,
			cfg.LearningRate, cfg.L1Logic, cfg.L2Head)

		m.stepFused(grad)
		for i := range wantFlat {
			if m.flat[i] != wantFlat[i] || m.opt.m[i] != wantM[i] || m.opt.v[i] != wantV[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTrainingDeterministic(t *testing.T) {
	// Two independent models with identical config and data must produce
	// bit-identical losses and parameters — buffer pooling and fixed-order
	// worker reduction may not introduce nondeterminism.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs, ys := goldenData(60+r.Intn(60), 10+r.Intn(10), r.Int63())
		cfg := Config{
			Hidden:    []int{6 + 2*r.Intn(3)},
			Epochs:    1 + r.Intn(3),
			BatchSize: 8 + r.Intn(24),
			Grafting:  r.Intn(2) == 1,
			KeepBest:  r.Intn(2) == 1,
			Seed:      r.Int63(),
			Workers:   1 + r.Intn(4),
		}
		a, err := New(len(xs[0]), cfg)
		if err != nil {
			panic(err)
		}
		b, err := New(len(xs[0]), cfg)
		if err != nil {
			panic(err)
		}
		if a.Train(xs, ys) != b.Train(xs, ys) {
			return false
		}
		pa, pb := a.Params(), b.Params()
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchGradAllocs(t *testing.T) {
	// Steady-state per-batch gradient work must be allocation free on the
	// single-worker path (the multi-worker path spends a fixed handful on
	// goroutine startup).
	xs, ys := goldenData(64, 16, 21)
	m, err := New(16, Config{Hidden: []int{8}, Workers: 1, Grafting: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]int, len(xs))
	for i := range batch {
		batch[i] = i
	}
	gbs := []*gradBuffers{m.getGradBuffers()}
	defer m.putGradBuffers(gbs[0])
	losses := make([]float64, 1)
	grad := make([]float64, m.numParams())
	m.batchGrad(xs, ys, batch, gbs, losses, grad) // warm up
	if n := testing.AllocsPerRun(50, func() {
		m.batchGrad(xs, ys, batch, gbs, losses, grad)
	}); n != 0 {
		t.Errorf("batchGrad allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		m.stepFused(grad)
	}); n != 0 {
		t.Errorf("stepFused allocates %v per run, want 0", n)
	}
}
