package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fl"
	"repro/internal/quality"
	"repro/internal/rules"
	"repro/internal/stats"
)

// QualityResult is the data-quality audit experiment: the workload's
// federation is seeded with one replicating and one label-flipping
// participant, and the per-participant quality reports must separate them
// from the honest majority.
type QualityResult struct {
	Workload   Workload
	Accuracy   float64
	Reports    []quality.Report
	Names      []string
	Replicator int
	Flipper    int
}

// RunQuality injects the two adversaries, trains, traces, and assesses.
func RunQuality(s *Setup) (*QualityResult, error) {
	if len(s.Parts) < 3 {
		return nil, fmt.Errorf("experiments: quality audit needs >= 3 participants")
	}
	r := stats.NewRNG(s.Workload.Seed + 31)
	parts := s.Parts
	replicator, flipper := 0, 1
	parts = fl.ReplaceParticipant(parts, fl.Replicate(parts[replicator], 1.0, r))
	parts = fl.ReplaceParticipant(parts, fl.FlipLabels(parts[flipper], 0.5, r))

	model, err := s.Trainer.Train(parts)
	if err != nil {
		return nil, err
	}
	rs := rules.Extract(model, s.Trainer.Encoder())

	var uploads []core.TrainingUpload
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		for i, a := range acts {
			uploads = append(uploads, core.TrainingUpload{
				Owner: pi, Label: p.Data.Instances[i].Label, Activations: a,
			})
		}
	}
	tracer := core.NewTracerFromUploads(rs, len(parts), uploads, s.CTFLConfig())
	res := tracer.Trace(s.Test)

	return &QualityResult{
		Workload:   s.Workload,
		Accuracy:   res.Accuracy(),
		Reports:    quality.Assess(res, uploads, rs.Weights(), rs.ClassMask(1), rs.ClassMask(0)),
		Names:      s.ParticipantNames(),
		Replicator: replicator,
		Flipper:    flipper,
	}, nil
}

// Render prints the audit with the injected adversaries marked.
func (q *QualityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Data-quality audit: %s (model accuracy %.4f)\n", q.Workload.String(), q.Accuracy)
	fmt.Fprintf(w, "injected adversaries: %s replicates 100%%, %s flips 50%% of labels\n\n",
		q.Names[q.Replicator], q.Names[q.Flipper])
	fmt.Fprint(w, quality.Render(q.Reports, q.Names))
}
