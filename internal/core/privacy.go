package core

// This file implements the privacy hardening the paper sketches in its Data
// Privacy Analysis (Section V): participants upload only the rule-activation
// vectors of their training data, and those vectors "can be further
// perturbed to guarantee differential privacy". The mechanism here is
// bitwise randomized response, the standard local-DP primitive for binary
// vectors: each activation bit is reported truthfully with probability
// e^eps/(1+e^eps) and flipped otherwise, giving eps-local differential
// privacy per bit.

import (
	"math"
	"math/rand"

	"repro/internal/bitset"
)

// flipProbability returns the randomized-response flip probability for a
// per-bit privacy budget eps: p = 1 / (1 + e^eps). eps <= 0 is rejected by
// the caller; larger eps means less noise.
func flipProbability(eps float64) float64 {
	return 1 / (1 + math.Exp(eps))
}

// PerturbActivations applies eps-local-DP randomized response to an
// activation bitset, returning a new set. It panics if eps <= 0.
func PerturbActivations(s *bitset.Set, eps float64, r *rand.Rand) *bitset.Set {
	if eps <= 0 {
		panic("core: DP epsilon must be positive")
	}
	p := flipProbability(eps)
	out := s.Clone()
	for i := 0; i < s.Width(); i++ {
		if r.Float64() < p {
			if out.Test(i) {
				out.Clear(i)
			} else {
				out.Set(i)
			}
		}
	}
	return out
}

// WithLocalDP returns a tracer whose indexed training activation vectors
// have been perturbed with eps-local-DP randomized response, simulating
// participants uploading privatized vectors. The test-side activations are
// computed by the federation itself and stay exact. Tracing quality degrades
// gracefully as eps shrinks; BenchmarkAblationDP quantifies the trade-off.
func (t *Tracer) WithLocalDP(eps float64, seed int64) *Tracer {
	r := rand.New(rand.NewSource(seed))
	dp := &index{
		rs:           t.rs,
		numParts:     t.numParts,
		trainOwner:   t.trainOwner,
		trainLabel:   t.trainLabel,
		trainActs:    make([]*bitset.Set, len(t.trainActs)),
		trainByLabel: t.trainByLabel,
	}
	for j, s := range t.trainActs {
		// Perturb the full pattern, then re-restrict to the instance's
		// class side as NewTracer does (the class mask is public model
		// structure, not private data).
		noisy := PerturbActivations(s, eps, r)
		dp.trainActs[j] = noisy.And(t.rs.ClassMask(t.trainLabel[j]))
	}
	dp.build()
	return newView(dp, t.cfg)
}
