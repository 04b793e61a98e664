package nn

// Hot-path benchmarks for the logical-NN training and inference kernels.
// BENCH_*.json (repo root) records the before/after trajectory of these
// numbers across PRs; regenerate with `go run ./cmd/ctfl bench`.

import (
	"math/rand"
	"testing"

	"repro/internal/telemetry"
)

// benchData plants the rule label = (x0 ∧ x1) ∨ x2 over random binary
// predicate vectors, mimicking encoder output without dataset machinery.
func benchData(n, dim int, seed int64) ([][]float64, []int) {
	r := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		x := make([]float64, dim)
		for j := range x {
			if r.Float64() < 0.35 {
				x[j] = 1
			}
		}
		xs[i] = x
		if (x[0] == 1 && x[1] == 1) || x[2] == 1 {
			ys[i] = 1
		}
	}
	return xs, ys
}

func benchModel(b *testing.B, dim int) *Model {
	b.Helper()
	m, err := New(dim, Config{
		Hidden: []int{64}, Grafting: true, Seed: 3,
		L1Logic: 2e-4, L2Head: 1e-3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTrainEpochs measures grafted mini-batch training: forward
// (continuous + discrete), backward, regularization and the Adam step.
func BenchmarkTrainEpochs(b *testing.B) {
	xs, ys := benchData(2000, 80, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchModel(b, 80)
		b.StartTimer()
		m.TrainEpochs(xs, ys, 3)
	}
}

// BenchmarkTrainEpochsObserved is BenchmarkTrainEpochs with per-epoch
// telemetry hooks installed, so BENCH_*.json pins the observation overhead
// (one selection-mask scan + histogram update per epoch) against the plain
// run.
func BenchmarkTrainEpochsObserved(b *testing.B) {
	xs, ys := benchData(2000, 80, 1)
	reg := telemetry.NewRegistry()
	hooks := TrainTelemetry(reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchModel(b, 80)
		m.SetTrainHooks(hooks)
		b.StartTimer()
		m.TrainEpochs(xs, ys, 3)
	}
}

// BenchmarkPredictBatch measures deployed-model (binarized) batch inference.
func BenchmarkPredictBatch(b *testing.B) {
	xs, ys := benchData(4000, 80, 2)
	m := benchModel(b, 80)
	m.TrainEpochs(xs[:500], ys[:500], 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictBatch(xs)
	}
}

// BenchmarkCountCorrect measures the streaming valuation engine's
// per-coalition scorer shape: one model scoring a fixed evaluation set,
// called repeatedly.
func BenchmarkCountCorrect(b *testing.B) {
	xs, ys := benchData(1000, 80, 2)
	m := benchModel(b, 80)
	m.TrainEpochs(xs[:500], ys[:500], 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.CountCorrect(xs, ys)
	}
}

// BenchmarkScoreAndActivations measures the batched score+activation pass
// feeding the tracer.
func BenchmarkScoreAndActivations(b *testing.B) {
	xs, ys := benchData(4000, 80, 2)
	m := benchModel(b, 80)
	m.TrainEpochs(xs[:500], ys[:500], 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.ScoreAndActivationsBatch(xs)
	}
}
