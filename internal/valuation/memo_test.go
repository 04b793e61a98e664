package valuation

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/stats"
)

// TestOracleFirstRoundMemoMatchesPlainTrain pins that sharing round-0
// local updates across coalitions changes no bit: every scheme scored
// through a NewOracle (one memo shared by all four schemes) equals the same
// scheme scored through a NewFuncOracle whose utility is a plain, memo-free
// Trainer.Train plus Accuracy, across the training options that touch
// round 0 and at one and four oracle workers.
func TestOracleFirstRoundMemoMatchesPlainTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(21)
	train, test := tab.Split(r, 0.25)
	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := fl.PartitionSkewLabel(train, 4, 0.8, r)
	model := nn.Config{Hidden: []int{8}, Grafting: true, Seed: 3, BatchSize: 64}
	configs := []struct {
		name string
		cfg  fl.TrainConfig
	}{
		{"sequential", fl.TrainConfig{}},
		{"parallel", fl.TrainConfig{Parallel: true}},
		{"fraction=0.5", fl.TrainConfig{Parallel: true, ClientFraction: 0.5, Seed: 9}},
		{"secureagg", fl.TrainConfig{SecureAgg: true, Seed: 4}},
	}
	for _, c := range configs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := c.cfg
				cfg.Rounds, cfg.LocalEpochs, cfg.Model = 2, 2, model
				trainer := fl.NewTrainer(enc, cfg)
				memo, err := NewOracle(trainer, parts, test)
				if err != nil {
					t.Fatal(err)
				}
				memo.Workers = workers
				testX, testY := enc.EncodeTable(test)
				plain := newSyntheticOracle(len(parts), func(mask uint64) (float64, error) {
					var coalition []*fl.Participant
					for i, p := range parts {
						if mask&(1<<uint(i)) != 0 {
							coalition = append(coalition, p)
						}
					}
					m, err := trainer.Train(coalition)
					if err != nil {
						return 0, err
					}
					return m.Accuracy(testX, testY), nil
				})
				plain.Workers = workers
				plain.EmptyUtility = memo.EmptyUtility

				schemes := func(o *Oracle) []Scheme {
					return []Scheme{
						&Individual{Trainer: trainer, SharedOracle: o},
						&LeaveOneOut{Trainer: trainer, SharedOracle: o},
						&ShapleyValue{Trainer: trainer, Permutations: 4, Seed: 1, Workers: workers, SharedOracle: o},
						&ShapleyValue{Trainer: trainer, Permutations: 4, Seed: 1, TruncationEps: -1, Workers: workers, SharedOracle: o},
						&LeastCore{Trainer: trainer, Samples: 10, Seed: 1, SharedOracle: o},
					}
				}
				want, got := schemes(plain), schemes(memo)
				for i := range want {
					ws, err := want[i].Scores(parts, test)
					if err != nil {
						t.Fatalf("%s (plain): %v", want[i].Name(), err)
					}
					gs, err := got[i].Scores(parts, test)
					if err != nil {
						t.Fatalf("%s (memo): %v", got[i].Name(), err)
					}
					for j := range ws {
						if gs[j] != ws[j] {
							t.Fatalf("%s #%d participant %d: %v with the memo, %v without", got[i].Name(), i, j, gs[j], ws[j])
						}
					}
				}
				if memo.Evals() != plain.Evals() {
					t.Fatalf("memo oracle trained %d coalitions, plain %d", memo.Evals(), plain.Evals())
				}
			})
		}
	}
}
