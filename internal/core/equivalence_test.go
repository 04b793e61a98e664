package core

// Equivalence tests for the inverted-index tracing kernel: a straight port
// of the pre-index implementation — a linear scan over all same-label
// training instances with bitset.WeightedIntersect — serves as the
// reference, and the indexed tracer must reproduce its Counts and
// TrainMatched bit-for-bit on random models, federations and activation
// patterns. Float summation order is part of the contract (both sides add
// rule weights in ascending rule order), so exact equality is required,
// not approximate.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

// referenceTraceOne is the seed implementation of Eq. 4: scan every
// training instance of the predicted label and threshold its weighted
// activation overlap.
func referenceTraceOne(t *Tracer, side *bitset.Set, denom float64, label int) (counts []int, matched []int) {
	counts = make([]int, t.numParts)
	if denom <= 0 {
		return counts, nil
	}
	need := t.cfg.TauW*denom - 1e-12
	weights := t.rs.Weights()
	for _, j := range t.trainByLabel[label] {
		if side.WeightedIntersect(t.trainActs[j], weights) >= need {
			counts[t.trainOwner[j]]++
			matched = append(matched, j)
		}
	}
	return counts, matched
}

func TestPropertyIndexMatchesLinearScanRandom(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		tau := 0.5 + 0.5*r.Float64()
		tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: tau})
		res := tr.Trace(fx.tab)

		// Rebuild the expected result with the reference linear scan.
		acts, pred := fx.rs.ActivationsTable(fx.tab)
		weights := fx.rs.Weights()
		wantMatched := make([]int, tr.NumTraining())
		for te, a := range acts {
			side := a.Clone().And(fx.rs.ClassMask(pred[te]))
			denom := side.WeightedCount(weights)
			counts, matched := referenceTraceOne(tr, side, denom, pred[te])
			for i := range counts {
				if res.Counts[te][i] != counts[i] {
					return false
				}
			}
			for _, j := range matched {
				wantMatched[j]++
			}
		}
		for j, w := range wantMatched {
			if res.TrainMatched[j] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTraceActivationsMatchesLinearScanRandom(t *testing.T) {
	// Feed traceOne arbitrary activation patterns — including ones NOT
	// restricted to a class side, which exercise the index's own-label
	// filter — and require exact agreement with the reference scan.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fx := newRandomFixture(r)
		tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.4 + 0.6*r.Float64()})
		weights := fx.rs.Weights()
		for trial := 0; trial < 10; trial++ {
			side := bitset.New(fx.rs.Width())
			for b := 0; b < fx.rs.Width(); b++ {
				if r.Float64() < 0.3 {
					side.Set(b)
				}
			}
			label := r.Intn(2)
			got := tr.TraceActivations(side, label)
			want, _ := referenceTraceOne(tr, side, side.WeightedCount(weights), label)
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsRowsIndependent(t *testing.T) {
	// Regression: deduped pattern groups used to hand every member test
	// instance the SAME counts slice, so mutating one row silently corrupted
	// the others. Rows must now be independent copies.
	r := rand.New(rand.NewSource(7))
	fx := newRandomFixture(r)
	// Force at least one shared pattern group: duplicate the first test row.
	fx.tab.Instances = append(fx.tab.Instances, fx.tab.Instances[0])
	dup := len(fx.tab.Instances) - 1

	tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.8})
	res := tr.Trace(fx.tab)

	want := append([]int(nil), res.Counts[dup]...)
	for i := range res.Counts[0] {
		res.Counts[0][i] += 1000
	}
	for i, w := range want {
		if res.Counts[dup][i] != w {
			t.Fatalf("mutating Counts[0] corrupted Counts[%d][%d]: got %d, want %d",
				dup, i, res.Counts[dup][i], w)
		}
	}
}

func TestTraceKernelAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	fx := newRandomFixture(r)
	tr := NewTracerFromUploads(fx.rs, fx.parts, fx.ups, Config{TauW: 0.7})
	// A dense pattern so the kernel actually walks posting lists.
	side := fx.rs.ClassMask(1).Clone()
	denom := side.WeightedCount(fx.rs.Weights())
	counts := make([]int, tr.numParts)
	sc := tr.getScratch()
	defer tr.putScratch(sc)
	tr.traceInto(side, denom, 1, counts, sc) // warm scratch growth
	if n := testing.AllocsPerRun(100, func() {
		for i := range counts {
			counts[i] = 0
		}
		tr.traceInto(side, denom, 1, counts, sc)
	}); n != 0 {
		t.Errorf("traceInto allocates %v per run, want 0", n)
	}
	// traceOne allocates only its result: the counts row plus (when anything
	// matched) one copy of the matched list — at most 2, plus an occasional
	// pool refill.
	if n := testing.AllocsPerRun(100, func() {
		tr.traceOne(side, denom, 1)
	}); n > 3 {
		t.Errorf("traceOne allocates %v per run, want <= 3", n)
	}
}
