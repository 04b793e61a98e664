package valuation

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/stats"
)

// The engine benchmarks model a coalition training as a fixed-latency call
// (an FL client round-trip plus a small deterministic utility computation)
// so they measure the batching/dedup/scheduling machinery rather than
// FedAvg's CPU cost. Latency-bound work overlaps even on a single core,
// which is exactly the regime the worker pool targets: in a real
// federation the oracle waits on clients, not on local arithmetic.
const benchTrainLatency = time.Millisecond

func benchTrainFn(mask uint64) (float64, error) {
	time.Sleep(benchTrainLatency)
	return syntheticUtility(mask)
}

// BenchmarkOracleBatch times one cold EvalBatch over the Individual +
// LeaveOneOut plans (33 distinct coalitions at n=16) at several worker
// counts. The workers=1 case is the sequential baseline the parallel runs
// are compared against.
func BenchmarkOracleBatch(b *testing.B) {
	const n = 16
	plan := append(PlanIndividual(n), PlanLeaveOneOut(n)...)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := newSyntheticOracle(n, benchTrainFn)
				o.Workers = workers
				if err := o.EvalBatch(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSampledShapleyParallel times a full truncated-Monte-Carlo
// Shapley estimate (8 permutations over 12 participants) against a cold
// oracle, with the permutation walkers and the prefix warm-up batch
// running at several worker counts. Scores are bit-identical across the
// sub-benchmarks (see TestSampledShapleyMatchesLegacySequential); only
// the wall clock changes.
func BenchmarkSampledShapleyParallel(b *testing.B) {
	const (
		n     = 12
		perms = 8
	)
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := newSyntheticOracle(n, benchTrainFn)
				o.Workers = workers
				_, err := SampledShapley(n, o.Utility, ShapleyConfig{
					Permutations: perms,
					Rand:         stats.NewRNG(7),
					Workers:      workers,
					Warm:         o.EvalBatch,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOracleFedAvgShapley times one Shapley pass with real FedAvg
// coalition training on a fresh oracle: tic-tac-toe at its natural size,
// n = 8 skew-label participants and the paper-pipeline training defaults
// (2 rounds of 10 local epochs, 64 hidden nodes), n permutations without
// truncation. Unlike the synthetic benchmarks above it measures training
// cost, so it is where sharing round-0 local updates across coalitions
// shows.
func BenchmarkOracleFedAvgShapley(b *testing.B) {
	const n = 8
	tab := dataset.TicTacToe()
	r := stats.NewRNG(1)
	train, test := tab.Split(r, 0.2)
	parts := fl.PartitionSkewLabel(train, n, 0.8, r)
	enc, err := dataset.NewEncoder(tab.Schema, 10, r)
	if err != nil {
		b.Fatal(err)
	}
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 2, LocalEpochs: 10, Parallel: true,
		Model: nn.Config{
			Hidden: []int{64}, Grafting: true, Seed: 2,
			L1Logic: 2e-4, L2Head: 1e-3, KeepBest: true,
		},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o, err := NewOracle(trainer, parts, test)
		if err != nil {
			b.Fatal(err)
		}
		sv := &ShapleyValue{Trainer: trainer, Permutations: n, TruncationEps: -1, Seed: 1, SharedOracle: o}
		if _, err := sv.Scores(parts, test); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(o.Evals()), "evals/op")
	}
}
