package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/valuation"
)

// tinySetup materializes a fast tic-tac-toe workload for integration tests.
func tinySetup(t *testing.T, skewLabel bool) *Setup {
	t.Helper()
	w := Workload{
		Dataset:      "tic-tac-toe",
		Participants: 4,
		SkewLabel:    skewLabel,
		Seed:         3,
		Rounds:       1,
		LocalEpochs:  6,
		Hidden:       32,
	}
	s, err := Materialize(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMaterializeDefaults(t *testing.T) {
	s, err := Materialize(Workload{Dataset: "tic-tac-toe", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Parts) != 8 {
		t.Fatalf("default participants = %d, want 8", len(s.Parts))
	}
	if s.Test.Len() == 0 {
		t.Fatal("no test data")
	}
	total := s.Test.Len()
	for _, p := range s.Parts {
		total += p.Size()
	}
	if total != 958 {
		t.Fatalf("rows lost: %d", total)
	}
	if s.Workload.TauW != 0.9 || s.Workload.Delta != 2 {
		t.Fatalf("defaults not applied: %+v", s.Workload)
	}
}

func TestMaterializeUnknownDataset(t *testing.T) {
	if _, err := Materialize(Workload{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestQuickWorkloadSizes(t *testing.T) {
	if QuickWorkload("tic-tac-toe", true, 1).Rows != 0 {
		t.Fatal("tic-tac-toe should use natural size")
	}
	if QuickWorkload("adult", false, 1).Rows == 0 {
		t.Fatal("adult quick workload should cap rows")
	}
}

func TestWorkloadString(t *testing.T) {
	s := Workload{Dataset: "adult", Rows: 100, Participants: 3, Alpha: 0.5, SkewLabel: true}.String()
	for _, want := range []string{"adult", "100 rows", "skew-label", "n=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String = %q missing %q", s, want)
		}
	}
}

func TestSchemesLineup(t *testing.T) {
	s := tinySetup(t, true)
	all := s.Schemes(true)
	if len(all) != 6 {
		t.Fatalf("full lineup = %d schemes", len(all))
	}
	cheap := s.Schemes(false)
	if len(cheap) != 4 {
		t.Fatalf("cheap lineup = %d schemes", len(cheap))
	}
	names := map[string]bool{}
	for _, sc := range all {
		names[sc.Name()] = true
	}
	for _, want := range []string{"Individual", "LeaveOneOut", "ShapleyValue", "LeastCore", "CTFL-micro", "CTFL-macro"} {
		if !names[want] {
			t.Fatalf("missing scheme %q in %v", want, names)
		}
	}
}

func TestRunFig4(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, true)
	res, err := RunFig4(s, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 4 {
		t.Fatalf("methods = %d", len(res.Methods))
	}
	for _, m := range res.Methods {
		if len(m.Curve) != 3 { // full + 2 removals
			t.Fatalf("%s curve length = %d", m.Name, len(m.Curve))
		}
		if len(m.Removed) != 2 {
			t.Fatalf("%s removed = %v", m.Name, m.Removed)
		}
		if m.AUC <= 0 || m.AUC > 1 {
			t.Fatalf("%s AUC = %v", m.Name, m.AUC)
		}
		// Removal order must be contribution-descending.
		if m.Scores[m.Removed[0]] < m.Scores[m.Removed[1]]-1e-12 {
			t.Fatalf("%s removal order not descending: %v %v", m.Name, m.Removed, m.Scores)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig.4") || !strings.Contains(buf.String(), "AUC=") {
		t.Fatalf("render output unexpected:\n%s", buf.String())
	}
}

func TestRunFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, false)
	res, err := RunFig5(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 6 {
		t.Fatalf("timings = %d", len(res.Timings))
	}
	byName := map[string]MethodTiming{}
	for _, m := range res.Timings {
		if m.Elapsed <= 0 {
			t.Fatalf("%s elapsed = %v", m.Name, m.Elapsed)
		}
		byName[m.Name] = m
	}
	// The combinatorial baselines must cost more than CTFL even at n=4.
	// This compares work counts, not wall time: at one round the first-round
	// memo trains each participant once for Shapley too, so both pay the same
	// n local trainings, which dominate both wall times. CTFL trains the
	// federation once (n·R local trainings) and evaluates no coalition;
	// Shapley pays at least those trainings plus its coalition evaluations.
	ctfl, shap := byName["CTFL-micro"], byName["ShapleyValue"]
	t.Logf("local trainings / coalition evaluations: CTFL %d/%d, Shapley %d/%d",
		ctfl.LocalTrains, ctfl.CoalitionEvals, shap.LocalTrains, shap.CoalitionEvals)
	if want := int64(len(s.Parts) * s.Workload.Rounds); ctfl.LocalTrains != want || ctfl.CoalitionEvals != 0 {
		t.Fatalf("CTFL did %d local trainings and %d coalition evaluations, want %d and 0",
			ctfl.LocalTrains, ctfl.CoalitionEvals, want)
	}
	if shap.LocalTrains < ctfl.LocalTrains || shap.CoalitionEvals < 1 {
		t.Fatalf("Shapley did %d local trainings and %d coalition evaluations, want at least %d and 1",
			shap.LocalTrains, shap.CoalitionEvals, ctfl.LocalTrains)
	}
	if sp := res.SpeedupOver("CTFL-micro"); sp < 1 {
		t.Fatalf("speedup = %v", sp)
	}
	if res.SpeedupOver("no-such") != 0 {
		t.Fatal("unknown method should give 0 speedup")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Fig.5") {
		t.Fatal("render missing title")
	}
}

func TestRunFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, true)
	res, err := RunFig6(s, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.Modified) != 2 || len(row.Ratios) != 2 {
			t.Fatalf("row %s victims = %v ratios = %v", row.Behaviour, row.Modified, row.Ratios)
		}
		for _, ratio := range row.Ratios {
			if ratio < 0.1 || ratio > 0.5 {
				t.Fatalf("ratio %v outside [0.1,0.5]", ratio)
			}
		}
		for _, m := range row.Methods {
			for _, c := range m.Changes {
				if c < -1-1e-9 || c > 1+1e-9 {
					t.Fatalf("%s/%s change %v not clipped", row.Behaviour, m.Name, c)
				}
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, b := range Behaviours() {
		if !strings.Contains(out, string(b)) {
			t.Fatalf("render missing %s", b)
		}
	}
}

func TestRunFig4AvgAveragesCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	w := Workload{
		Dataset: "tic-tac-toe", Participants: 4, SkewLabel: true,
		Seed: 3, Rounds: 1, LocalEpochs: 6, Hidden: 32,
	}
	res, err := RunFig4Avg(w, 2, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 4 {
		t.Fatalf("methods = %d", len(res.Methods))
	}
	for _, m := range res.Methods {
		if len(m.Curve) != 3 {
			t.Fatalf("%s curve = %v", m.Name, m.Curve)
		}
		for _, v := range m.Curve {
			if v < 0 || v > 1 {
				t.Fatalf("%s averaged curve out of range: %v", m.Name, m.Curve)
			}
		}
		if math.Abs(m.AUC-stats.AUC(m.Curve)) > 1e-12 {
			t.Fatalf("%s AUC not recomputed from averaged curve", m.Name)
		}
	}
}

func TestRunFig6AvgAveragesChanges(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	w := Workload{
		Dataset: "tic-tac-toe", Participants: 4, SkewLabel: true,
		Seed: 3, Rounds: 1, LocalEpochs: 6, Hidden: 32,
	}
	res, err := RunFig6Avg(w, 2, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, m := range row.Methods {
			if math.Abs(m.MeanChange-stats.Mean(m.Changes)) > 1e-12 {
				t.Fatalf("%s mean not recomputed", m.Name)
			}
		}
	}
}

func TestAttachOracleSharesCache(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, false)
	oracle, err := valuation.NewOracle(s.Trainer, s.Parts, s.Test)
	if err != nil {
		t.Fatal(err)
	}
	schemes := s.Schemes(false) // Individual + LOO + CTFL×2
	AttachOracle(schemes, oracle)
	for _, sc := range schemes {
		if _, err := sc.Scores(s.Parts, s.Test); err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
	}
	// Individual needs the n singletons, LOO needs full + n leave-outs:
	// 2n+1 distinct coalitions when shared (CTFL trains outside the oracle).
	want := 2*len(s.Parts) + 1
	if oracle.Evals() != want {
		t.Fatalf("shared oracle evals = %d, want %d", oracle.Evals(), want)
	}
}

func TestRelativeChange(t *testing.T) {
	if got := relativeChange(0.2, 0.3); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("relativeChange = %v, want 0.5", got)
	}
	if got := relativeChange(0.2, 0); math.Abs(got+1) > 1e-12 {
		t.Fatalf("relativeChange to zero = %v, want -1", got)
	}
	if got := relativeChange(0.1, 1.5); got != 1 {
		t.Fatalf("clipping failed: %v", got)
	}
	if got := relativeChange(0, 0.4); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("zero baseline = %v, want 0.4", got)
	}
}

func TestRunInterpret(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	w := Workload{
		Dataset: "tic-tac-toe", Participants: 3, SkewLabel: true,
		Seed: 5, Rounds: 15, LocalEpochs: 20, Hidden: 64,
	}
	s, err := Materialize(w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInterpret(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profiles) != 3 || len(res.Micro) != 3 {
		t.Fatalf("profile/micro sizes wrong: %d %d", len(res.Profiles), len(res.Micro))
	}
	if res.Accuracy < 0.75 {
		t.Fatalf("model accuracy %v too low for a meaningful case study", res.Accuracy)
	}
	// At least one participant must have beneficial rules to report.
	any := false
	for _, p := range res.Profiles {
		if len(p.Beneficial) > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no beneficial rules extracted")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "contribution scores") {
		t.Fatal("render missing scores table")
	}
}

func TestRunTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	res, err := RunTable2(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CoalitionOrder) != 8 {
		t.Fatalf("coalitions = %d", len(res.CoalitionOrder))
	}
	vFull := res.Utilities["A,B,C"]
	vAB := res.Utilities["A,B"]
	// The designed scenario: adding C to {A,B} must improve accuracy
	// (C holds the complementary o-wins data).
	if vFull <= vAB {
		t.Fatalf("C should be complementary: v(ABC)=%v <= v(AB)=%v", vFull, vAB)
	}
	// Shapley must give C at least a comparable share, unlike Individual.
	if res.Shapley[2] <= 0 {
		t.Fatalf("Shapley gave C %v", res.Shapley[2])
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Table II") {
		t.Fatal("render missing title")
	}
}

func TestRunAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, true)
	res, err := RunAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TauRows) != 5 || len(res.DeltaRows) != 5 || len(res.DPRows) != 5 {
		t.Fatalf("row counts: %d %d %d",
			len(res.TauRows), len(res.DeltaRows), len(res.DPRows))
	}
	// Coverage gap must not shrink as tau rises.
	for i := 1; i < len(res.TauRows); i++ {
		if res.TauRows[i].CoverageGap < res.TauRows[i-1].CoverageGap-1e-9 {
			t.Fatalf("coverage gap decreased with stricter tau: %+v", res.TauRows)
		}
	}
	// Allocated macro credit must not grow with delta.
	for i := 1; i < len(res.DeltaRows); i++ {
		if res.DeltaRows[i].AllocatedCredit > res.DeltaRows[i-1].AllocatedCredit+1e-9 {
			t.Fatalf("macro credit grew with delta: %+v", res.DeltaRows)
		}
	}
	// DP rank agreement should broadly improve with epsilon.
	if res.DPRows[len(res.DPRows)-1].RankAgreement < res.DPRows[0].RankAgreement-0.2 {
		t.Fatalf("DP agreement not improving with budget: %+v", res.DPRows)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"tau_w sweep", "macro delta sweep", "local-DP"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestTableBuilder(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("x", "1")
	tb.AddRowf("y", "%.1f", 2.0, 3.0)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"t", "a", "b", "x", "2.0", "3.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output %q missing %q", out, want)
		}
	}
}

func TestRunQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, false)
	res, err := RunQuality(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	// The replicator must show the strongest duplicate signal.
	for i, r := range res.Reports {
		if i == res.Replicator {
			continue
		}
		if r.DuplicateRatio > res.Reports[res.Replicator].DuplicateRatio {
			t.Fatalf("participant %d out-duplicates the replicator: %+v", i, res.Reports)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Data-quality audit") {
		t.Fatal("render missing title")
	}
	// Too few participants errors.
	small := tinySetup(t, false)
	small.Parts = small.Parts[:2]
	if _, err := RunQuality(small); err == nil {
		t.Fatal("2 participants should error")
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	down := sparkline([]float64{1, 0.75, 0.5, 0.25, 0})
	if []rune(down)[0] != '█' || []rune(down)[4] != '▁' {
		t.Fatalf("descending sparkline = %q", down)
	}
	flat := sparkline([]float64{0.5, 0.5, 0.5})
	runes := []rune(flat)
	if runes[0] != runes[1] || runes[1] != runes[2] {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

func TestRunDefense(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	s := tinySetup(t, false)
	res, err := RunDefense(s, DefenseConfig{
		Rounds:      6,
		LocalEpochs: 3,
		Thresholds:  []float64{-0.03, -0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attacker != s.Parts[len(s.Parts)-1].ID {
		t.Fatalf("attacker = %d, want the last participant", res.Attacker)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per threshold", len(res.Rows))
	}
	if res.CleanAcc <= 0 || res.UngatedAcc <= 0 {
		t.Fatalf("degenerate bracket: clean %.3f ungated %.3f", res.CleanAcc, res.UngatedAcc)
	}
	for _, row := range res.Rows {
		if row.Acc <= 0 || row.Recovery <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
	}
	// The sweep and its bracket runs must reproduce bit-identically.
	again, err := RunDefense(s, DefenseConfig{
		Rounds:      6,
		LocalEpochs: 3,
		Thresholds:  []float64{-0.03, -0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again.CleanAcc) != math.Float64bits(res.CleanAcc) ||
		math.Float64bits(again.UngatedAcc) != math.Float64bits(res.UngatedAcc) {
		t.Fatal("defense bracket runs not reproducible from the seed")
	}
	for i := range res.Rows {
		if math.Float64bits(again.Rows[i].Acc) != math.Float64bits(res.Rows[i].Acc) ||
			math.Float64bits(again.Rows[i].AttackerScore) != math.Float64bits(res.Rows[i].AttackerScore) {
			t.Fatalf("defense row %d not reproducible", i)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "ContAvg defense sweep") || !strings.Contains(out, "ungated") {
		t.Fatalf("render missing sections:\n%s", out)
	}
	// Too few participants errors.
	small := tinySetup(t, false)
	small.Parts = small.Parts[:1]
	if _, err := RunDefense(small, DefenseConfig{}); err == nil {
		t.Fatal("1 participant should error")
	}
}
