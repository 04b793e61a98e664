// Package quality builds per-participant data-quality reports from CTFL's
// tracing artifacts. Section IV-B of the paper sketches the ingredients —
// useless-data ratios, rule-activation frequencies, loss tracing — and this
// package combines them with two further signals computable from uploads
// alone (no raw data): exact-duplicate detection via activation-pattern
// collisions, and a label-noise estimate from contradictions between an
// instance's label and the class side its activations support. The result
// is the actionable report a federation operator would hand back to a
// low-scoring participant.
package quality

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/stats"
)

// Report is one participant's data-quality assessment.
type Report struct {
	Participant int
	Instances   int
	// UselessRatio is the fraction of instances never matched by any test
	// instance (from core.Result).
	UselessRatio float64
	// DuplicateRatio is the fraction of instances whose (label, activation
	// pattern) pair occurs more than once within the participant's uploads.
	// High values suggest replication (or trivially redundant data).
	DuplicateRatio float64
	// ContradictionRatio estimates label noise: the fraction of instances
	// whose activation pattern carries more weighted evidence for the
	// OPPOSITE class than for their own label.
	ContradictionRatio float64
	// GainShare and LossShare are the participant's normalized micro credit
	// and blame.
	GainShare, LossShare float64
	// Grade summarizes the report: "good", "review" or "poor".
	Grade string
}

// Assess builds reports for every participant from the tracing result and
// the original uploads (the same vectors the tracer indexed; building a
// tracer leaves them unchanged).
func Assess(res *core.Result, uploads []core.TrainingUpload, weights []float64, posMask, negMask *bitset.Set) []Report {
	n := res.NumParticipants
	reports := make([]Report, n)
	for i := range reports {
		reports[i].Participant = i
	}

	// Duplicate detection: count (owner, label, pattern) collisions.
	type key struct {
		owner int
		label int
		pat   string
	}
	seen := map[key]int{}
	for _, u := range uploads {
		seen[key{u.Owner, u.Label, u.Activations.Key()}]++
	}
	dup := make([]int, n)
	for _, u := range uploads {
		reports[u.Owner].Instances++
		if seen[key{u.Owner, u.Label, u.Activations.Key()}] > 1 {
			dup[u.Owner]++
		}
	}

	// Contradiction estimate: weighted vote of the instance's activations
	// against its own label.
	contra := make([]int, n)
	var scratch *bitset.Set
	for _, u := range uploads {
		own := posMask
		other := negMask
		if u.Label == 0 {
			own, other = negMask, posMask
		}
		scratch = u.Activations.AndInto(own, scratch)
		ownW := scratch.WeightedCount(weights)
		scratch = u.Activations.AndInto(other, scratch)
		otherW := scratch.WeightedCount(weights)
		if otherW > ownW {
			contra[u.Owner]++
		}
	}

	useless := res.UselessRatio()
	gain := res.MicroScores()
	loss := res.MicroLossScores()
	stats.Normalize(gain)
	stats.Normalize(loss)

	for i := range reports {
		r := &reports[i]
		if r.Instances > 0 {
			r.DuplicateRatio = float64(dup[i]) / float64(r.Instances)
			r.ContradictionRatio = float64(contra[i]) / float64(r.Instances)
		}
		r.UselessRatio = useless[i]
		r.GainShare = gain[i]
		r.LossShare = loss[i]
		r.Grade = grade(r)
	}
	return reports
}

// grade applies the operator heuristics: poor when most data is inert or
// contradictory, review when any single signal is elevated.
func grade(r *Report) string {
	switch {
	case r.UselessRatio > 0.6 || r.ContradictionRatio > 0.4:
		return "poor"
	case r.UselessRatio > 0.3 || r.ContradictionRatio > 0.2 ||
		r.DuplicateRatio > 0.3 || r.LossShare > 2*r.GainShare && r.LossShare > 0.2:
		return "review"
	default:
		return "good"
	}
}

// Render prints the reports as a table, sorted by grade severity.
func Render(reports []Report, names []string) string {
	order := map[string]int{"poor": 0, "review": 1, "good": 2}
	sorted := append([]Report{}, reports...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return order[sorted[a].Grade] < order[sorted[b].Grade]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s %7s %7s  %s\n",
		"participant", "rows", "useless", "dup", "contra", "gain", "loss", "grade")
	for _, r := range sorted {
		name := fmt.Sprintf("#%d", r.Participant)
		if r.Participant < len(names) {
			name = names[r.Participant]
		}
		fmt.Fprintf(&b, "%-12s %6d %8.2f %8.2f %8.2f %7.3f %7.3f  %s\n",
			name, r.Instances, r.UselessRatio, r.DuplicateRatio,
			r.ContradictionRatio, r.GainShare, r.LossShare, strings.ToUpper(r.Grade))
	}
	return b.String()
}
