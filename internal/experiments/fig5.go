package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/valuation"
)

// MethodTiming records one scheme's wall-clock cost to produce final scores
// and the work behind it: local client trainings and coalition evaluations.
type MethodTiming struct {
	Name                        string
	Elapsed                     time.Duration
	Scores                      []float64
	LocalTrains, CoalitionEvals int64
}

// Fig5Result reproduces one group of bars of the paper's Fig. 5.
type Fig5Result struct {
	Workload Workload
	Timings  []MethodTiming
}

// RunFig5 times every scheme end-to-end (training included) with no shared
// caches, mirroring the paper's execution-time measurement. Each baseline
// gets its own instrumented oracle, built inside its timed span.
func RunFig5(s *Setup, includeExpensive bool) (*Fig5Result, error) {
	res := &Fig5Result{Workload: s.Workload}
	for _, scheme := range s.Schemes(includeExpensive) {
		trains, obs := s.Trainer.LocalTrains(), valuation.NewObs(telemetry.NewRegistry())
		start := time.Now()
		if _, ctfl := scheme.(*core.Scheme); !ctfl {
			o, err := valuation.NewOracle(s.Trainer, s.Parts, s.Test)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", scheme.Name(), err)
			}
			o.Obs = obs
			AttachOracle([]valuation.Scheme{scheme}, o)
		}
		scores, err := scheme.Scores(s.Parts, s.Test)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", scheme.Name(), err)
		}
		res.Timings = append(res.Timings, MethodTiming{
			Name:           scheme.Name(),
			Elapsed:        time.Since(start),
			Scores:         scores,
			LocalTrains:    s.Trainer.LocalTrains() - trains,
			CoalitionEvals: obs.Evals.Value(),
		})
	}
	return res, nil
}

// SpeedupOver returns how many times faster the named method is than the
// slowest method in the result (the paper's "2-3 orders of magnitude" claim
// compares CTFL against ShapleyValue/LeastCore).
func (r *Fig5Result) SpeedupOver(name string) float64 {
	var target, slowest time.Duration
	for _, m := range r.Timings {
		if m.Name == name {
			target = m.Elapsed
		}
		if m.Elapsed > slowest {
			slowest = m.Elapsed
		}
	}
	if target == 0 {
		return 0
	}
	return float64(slowest) / float64(target)
}

// Render prints the timing rows.
func (r *Fig5Result) Render(w io.Writer) {
	t := NewTable("Fig.5 — execution time: "+r.Workload.String(),
		"method", "seconds", "scores")
	for _, m := range r.Timings {
		t.AddRow(m.Name, fmt.Sprintf("%.3f", m.Elapsed.Seconds()), formatScores(m.Scores))
	}
	t.Render(w)
}
