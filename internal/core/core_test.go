package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/rules"
	"repro/internal/stats"
)

// fig2Fixture reconstructs the tracing scenario of the paper's Figure 2 /
// Examples III.3 and III.4 with four single-predicate rules:
//
//	r0+ "f0 = yes" (w 1.0)   r1+ "f1 = yes" (w 1.0)
//	r2- "f2 = yes" (w 1.0)   r3- "f3 = yes" (w 0.5)
//
// Participants: A holds 4 positive rows activating r0,r1; B holds 6 negative
// rows activating r2,r3; C holds 2 negative rows activating only r2 plus 2
// positive rows activating only r1.
type fig2 struct {
	enc   *dataset.Encoder
	model *nn.Model
	rs    *rules.Set
	parts []*fl.Participant
	test  *dataset.Table
}

func yes() float64 { return 0 }
func no() float64  { return 1 }

func buildFig2(t *testing.T) *fig2 {
	t.Helper()
	schema := &dataset.Schema{Name: "fig2", Labels: [2]string{"neg", "pos"}}
	for _, n := range []string{"f0", "f1", "f2", "f3"} {
		schema.Features = append(schema.Features, dataset.Feature{
			Name: n, Kind: dataset.Discrete, Categories: []string{"yes", "no"},
		})
	}
	enc, err := dataset.NewEncoder(schema, 2, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.New(enc.Width(), nn.Config{Hidden: []int{8}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	for i := range p {
		p[i] = 0
	}
	in := enc.Width() // 12: three predicates per feature
	p[0*in+0] = 1     // node0 conj: f0=yes
	p[1*in+3] = 1     // node1 conj: f1=yes
	p[2*in+6] = 1     // node2 conj: f2=yes
	p[3*in+9] = 1     // node3 conj: f3=yes
	head := 8 * in
	p[head+0] = 1
	p[head+1] = 1
	p[head+2] = -1
	p[head+3] = -0.5
	p[head+8] = -0.01 // bias: empty vote predicts negative
	if err := m.SetParams(p); err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(m, enc)

	row := func(f0, f1, f2, f3 float64, label int) dataset.Instance {
		return dataset.Instance{Values: []float64{f0, f1, f2, f3}, Label: label}
	}
	tab := func(rows ...dataset.Instance) *dataset.Table {
		return &dataset.Table{Schema: schema, Instances: rows}
	}
	partA := &fl.Participant{ID: 0, Name: "A", Data: tab(
		row(yes(), yes(), no(), no(), 1),
		row(yes(), yes(), no(), no(), 1),
		row(yes(), yes(), no(), no(), 1),
		row(yes(), yes(), no(), no(), 1),
	)}
	partB := &fl.Participant{ID: 1, Name: "B", Data: tab(
		row(no(), no(), yes(), yes(), 0),
		row(no(), no(), yes(), yes(), 0),
		row(no(), no(), yes(), yes(), 0),
		row(no(), no(), yes(), yes(), 0),
		row(no(), no(), yes(), yes(), 0),
		row(no(), no(), yes(), yes(), 0),
	)}
	partC := &fl.Participant{ID: 2, Name: "C", Data: tab(
		row(no(), no(), yes(), no(), 0),
		row(no(), no(), yes(), no(), 0),
		row(no(), yes(), no(), no(), 1),
		row(no(), yes(), no(), no(), 1),
	)}
	test := tab(
		row(no(), yes(), no(), no(), 1),  // te0: TP via r1
		row(no(), no(), no(), no(), 1),   // te1: FN, nothing activated
		row(no(), no(), yes(), yes(), 0), // te2: TN via r2,r3 (Example III.3)
		row(no(), no(), no(), yes(), 1),  // te3: FN via r3 (loss traced to B)
	)
	return &fig2{enc: enc, model: m, rs: rs, parts: []*fl.Participant{partA, partB, partC}, test: test}
}

func approxSlice(t *testing.T, got, want []float64, tol float64, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", msg, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: got %v, want %v", msg, got, want)
		}
	}
}

func TestFig2TraceCounts(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	if tr.NumParticipants() != 3 || tr.NumTraining() != 14 {
		t.Fatalf("tracer indexed %d parts, %d rows", tr.NumParticipants(), tr.NumTraining())
	}
	res := tr.Trace(f.test)

	// te0 (TP): A's 4 rows and C's 2 positive rows activate r1.
	if got := res.Counts[0]; got[0] != 4 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("te0 counts = %v, want [4 0 2]", got)
	}
	// te1 (FN, no activations): nothing related.
	if got := res.Counts[1]; got[0]+got[1]+got[2] != 0 {
		t.Fatalf("te1 counts = %v, want zeros", got)
	}
	// te2 (TN, Example III.3): tauW=0.6 admits B's 6 (full match) and C's 2
	// (r2 only: 1.0/1.5 = 2/3 >= 0.6).
	if got := res.Counts[2]; got[0] != 0 || got[1] != 6 || got[2] != 2 {
		t.Fatalf("te2 counts = %v, want [0 6 2]", got)
	}
	// te3 (FN via r3): loss traced to B (its rows activate r3).
	if got := res.Counts[3]; got[0] != 0 || got[1] != 6 || got[2] != 0 {
		t.Fatalf("te3 counts = %v, want [0 6 0]", got)
	}

	// Predictions: te0 pos, te1 neg, te2 neg, te3 neg.
	wantPred := []int{1, 0, 0, 0}
	for i, p := range res.Pred {
		if p != wantPred[i] {
			t.Fatalf("pred = %v, want %v", res.Pred, wantPred)
		}
	}
}

func TestFig2StrictTauExcludesPartialMatch(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 1.0})
	res := tr.Trace(f.test)
	// Example III.3 with tauW=1: only B's rows (activating both r2 and r3)
	// relate to te2.
	if got := res.Counts[2]; got[0] != 0 || got[1] != 6 || got[2] != 0 {
		t.Fatalf("te2 counts at tauW=1 = %v, want [0 6 0]", got)
	}
}

func TestFig2MicroScores(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	res := tr.Trace(f.test)
	// Example III.4: te0 → A 1/4·4/6, C 1/4·2/6; te2 → B 1/4·6/8 = 3/16,
	// C 1/4·2/8 = 1/16.
	want := []float64{1.0 / 6, 3.0 / 16, 1.0/12 + 1.0/16}
	approxSlice(t, res.MicroScores(), want, 1e-12, "micro scores")

	// Group rationality: scores sum to accuracy minus the coverage gap.
	sum := stats.Sum(res.MicroScores())
	if math.Abs(sum-(res.Accuracy()-res.CoverageGap())) > 1e-12 {
		t.Fatalf("group rationality violated: sum=%v acc=%v gap=%v", sum, res.Accuracy(), res.CoverageGap())
	}
	if res.Accuracy() != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", res.Accuracy())
	}
	if res.CoverageGap() != 0 {
		t.Fatalf("coverage gap = %v, want 0", res.CoverageGap())
	}
}

func TestFig2MacroScores(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6, Delta: 2})
	res := tr.Trace(f.test)
	// Example III.4 macro with delta=2: te0 splits between A and C, te2
	// splits between B and C (1/4 · 1/2 = 1/8 each).
	want := []float64{0.125, 0.125, 0.25}
	approxSlice(t, res.MacroScores(), want, 1e-12, "macro scores")

	// Higher delta excludes C everywhere (its related counts are 2).
	at3 := res.MacroScoresAt(3)
	want3 := []float64{0.25, 0.25, 0}
	approxSlice(t, at3, want3, 1e-12, "macro at delta=3")
}

func TestFig2LossScores(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	res := tr.Trace(f.test)
	// te3 is the only traceable miss; B absorbs all of it: 1/4.
	wantLoss := []float64{0, 0.25, 0}
	approxSlice(t, res.MicroLossScores(), wantLoss, 1e-12, "micro loss")
	macroLoss := res.MacroLossScores()
	approxSlice(t, macroLoss, []float64{0, 0.25, 0}, 1e-12, "macro loss")
}

func TestFig2UselessRatio(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	res := tr.Trace(f.test)
	u := res.UselessRatio()
	// A: all 4 rows matched te0 → 0. B: all matched (te2, te3) → 0.
	// C: 2 negative rows matched te2, 2 positive matched te0 → 0.
	approxSlice(t, u, []float64{0, 0, 0}, 1e-12, "useless ratio")
}

func TestReplicationRobustnessOfMacro(t *testing.T) {
	f := buildFig2(t)
	// B replicates its entire dataset; micro inflates, macro must not.
	r := stats.NewRNG(3)
	repl := fl.Replicate(f.parts[1], 1.0, r)
	partsR := fl.ReplaceParticipant(f.parts, repl)

	base := NewTracer(f.rs, f.parts, Config{TauW: 0.6, Delta: 2}).Trace(f.test)
	after := NewTracer(f.rs, partsR, Config{TauW: 0.6, Delta: 2}).Trace(f.test)

	baseMicro, afterMicro := base.MicroScores(), after.MicroScores()
	if afterMicro[1] <= baseMicro[1] {
		t.Fatalf("micro should inflate under replication: %v -> %v", baseMicro[1], afterMicro[1])
	}
	baseMacro, afterMacro := base.MacroScores(), after.MacroScores()
	if math.Abs(afterMacro[1]-baseMacro[1]) > 1e-12 {
		t.Fatalf("macro must be replication-invariant: %v -> %v", baseMacro[1], afterMacro[1])
	}
}

func TestZeroElementProperty(t *testing.T) {
	f := buildFig2(t)
	// Participant D holds data that activates no rules at all.
	rowsD := []dataset.Instance{
		{Values: []float64{no(), no(), no(), no()}, Label: 1},
		{Values: []float64{no(), no(), no(), no()}, Label: 0},
	}
	partD := &fl.Participant{ID: 3, Name: "D", Data: &dataset.Table{Schema: f.test.Schema, Instances: rowsD}}
	parts := append(append([]*fl.Participant{}, f.parts...), partD)
	res := NewTracer(f.rs, parts, Config{TauW: 0.6}).Trace(f.test)
	if got := res.MicroScores()[3]; got != 0 {
		t.Fatalf("zero element violated: D scored %v", got)
	}
	if got := res.MacroScores()[3]; got != 0 {
		t.Fatalf("zero element violated (macro): D scored %v", got)
	}
	if got := res.UselessRatio()[3]; got != 1 {
		t.Fatalf("D's useless ratio = %v, want 1", got)
	}
}

func TestSymmetryProperty(t *testing.T) {
	f := buildFig2(t)
	// Two participants with identical data must receive identical scores.
	twinData := f.parts[2].Data.Clone()
	twin := &fl.Participant{ID: 3, Name: "C2", Data: twinData}
	parts := append(append([]*fl.Participant{}, f.parts...), twin)
	res := NewTracer(f.rs, parts, Config{TauW: 0.6}).Trace(f.test)
	micro := res.MicroScores()
	if math.Abs(micro[2]-micro[3]) > 1e-12 {
		t.Fatalf("symmetry violated: %v vs %v", micro[2], micro[3])
	}
	macro := res.MacroScores()
	if math.Abs(macro[2]-macro[3]) > 1e-12 {
		t.Fatalf("macro symmetry violated: %v vs %v", macro[2], macro[3])
	}
}

func TestAdditivityAcrossTestSets(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6})
	resAll := tr.Trace(f.test)
	half1 := &dataset.Table{Schema: f.test.Schema, Instances: f.test.Instances[:2]}
	half2 := &dataset.Table{Schema: f.test.Schema, Instances: f.test.Instances[2:]}
	res1 := tr.Trace(half1)
	res2 := tr.Trace(half2)
	// Additivity over utility metrics: the combined score is the size-
	// weighted sum of the per-set scores.
	all := resAll.MicroScores()
	s1, s2 := res1.MicroScores(), res2.MicroScores()
	for i := range all {
		combined := (2.0*s1[i] + 2.0*s2[i]) / 4.0
		if math.Abs(all[i]-combined) > 1e-12 {
			t.Fatalf("additivity violated at %d: %v vs %v", i, all[i], combined)
		}
	}
}

func TestSuspicionFlagsLabelFlipper(t *testing.T) {
	f := buildFig2(t)
	// Participant E holds label-flipped copies of B's pattern: rows that
	// activate r2,r3 (negative rules) but claim the positive label. Test
	// instances matching those rules are predicted negative; when their true
	// label is negative, E earns nothing; when a test row has flipped label
	// too, E would gain. Here E mainly absorbs blame on te3-style misses.
	rowsE := []dataset.Instance{
		{Values: []float64{no(), no(), no(), yes()}, Label: 0},
		{Values: []float64{no(), no(), no(), yes()}, Label: 0},
		{Values: []float64{no(), no(), no(), yes()}, Label: 0},
	}
	partE := &fl.Participant{ID: 3, Name: "E", Data: &dataset.Table{Schema: f.test.Schema, Instances: rowsE}}
	parts := append(append([]*fl.Participant{}, f.parts...), partE)
	res := NewTracer(f.rs, parts, Config{TauW: 0.6}).Trace(f.test)
	rep := res.Suspicion(0.5)
	// E's rows match te3 (an FN) and earn loss credit but no gain: ratio 1.
	found := false
	for _, s := range rep.Suspects {
		if s == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("participant E should be suspected; report %+v", rep)
	}
	// Honest A must not be suspected.
	for _, s := range rep.Suspects {
		if s == 0 {
			t.Fatalf("honest participant A suspected: %+v", rep)
		}
	}
}

func TestProfilesAndGuidance(t *testing.T) {
	f := buildFig2(t)
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6, Delta: 2})
	res := tr.Trace(f.test)
	profs := res.Profiles(3)
	if len(profs) != 3 {
		t.Fatalf("profiles = %d", len(profs))
	}
	// A's top beneficial rule is r1 ("f1 = yes"), the rule it earned te0 by.
	if len(profs[0].Beneficial) == 0 || profs[0].Beneficial[0].Expr != "f1 = yes" {
		t.Fatalf("A's beneficial profile wrong: %+v", profs[0].Beneficial)
	}
	// B earns via the negative rules and absorbs blame for te3 via r3.
	if len(profs[1].Harmful) == 0 {
		t.Fatal("B should have a harmful entry from te3")
	}
	// te1 is misclassified and uncovered: its true class is positive and no
	// positive rule fired, so guidance is empty for it; te3 has B related
	// (count 6 >= delta), so not under-covered. Guidance may be empty here.
	_ = res.CollectionGuidance(5)

	out := FormatProfile(res.Profile(0, 2), "A")
	if out == "" {
		t.Fatal("FormatProfile returned nothing")
	}
}

func TestCollectionGuidanceSurfacesUncovered(t *testing.T) {
	f := buildFig2(t)
	// Craft a miss with true-side activations and no related training:
	// te activates r0 (positive side) but model predicts negative because
	// r2,r3 outweigh it; true label positive; no positive-label training
	// holds r0+r2-ish patterns. Values: f0=yes, f2=yes, f3=yes → score
	// = 1 - 1 - 0.5 - 0.01 < 0 → pred 0, truth 1 → FN. Related on negative
	// side: B's rows match (6 ≥ delta)… so use delta high to force
	// under-coverage accounting.
	test := &dataset.Table{Schema: f.test.Schema, Instances: []dataset.Instance{
		{Values: []float64{yes(), no(), yes(), yes()}, Label: 1},
	}}
	tr := NewTracer(f.rs, f.parts, Config{TauW: 0.6, Delta: 100})
	res := tr.Trace(test)
	g := res.CollectionGuidance(0)
	if len(g) == 0 {
		t.Fatal("expected data-collection guidance for uncovered miss")
	}
	// The guidance should point at the true-class rule that fired: r0.
	if g[0].Expr != "f0 = yes" {
		t.Fatalf("guidance = %+v, want f0 = yes first", g)
	}
}

func TestTracerPanicsOnBadTau(t *testing.T) {
	f := buildFig2(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TauW > 1")
		}
	}()
	NewTracer(f.rs, f.parts, Config{TauW: 1.5})
}

func TestVariantString(t *testing.T) {
	if Micro.String() != "micro" || Macro.String() != "macro" {
		t.Fatal("Variant.String broken")
	}
	if Variant(9).String() == "" {
		t.Fatal("unknown variant should render")
	}
}

func TestSchemeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	tab := dataset.TicTacToe()
	r := stats.NewRNG(9)
	train, test := tab.Split(r, 0.2)
	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := fl.PartitionSkewLabel(train, 3, 0.8, r)
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 2, LocalEpochs: 10, Parallel: true,
		Model: nn.Config{Hidden: []int{64}, Grafting: true, Seed: 3},
	})
	s := &Scheme{Variant: Micro, Trainer: trainer, Cfg: Config{TauW: 0.9}}
	if s.Name() != "CTFL-micro" {
		t.Fatalf("Name = %q", s.Name())
	}
	scores, err := s.Scores(parts, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 3 {
		t.Fatalf("scores = %v", scores)
	}
	if stats.Sum(scores) <= 0 {
		t.Fatalf("no credit allocated: %v", scores)
	}
	sm := &Scheme{Variant: Macro, Trainer: trainer, Cfg: Config{TauW: 0.9}}
	if sm.Name() != "CTFL-macro" {
		t.Fatalf("macro name = %q", sm.Name())
	}
	bad := &Scheme{Variant: Micro}
	if _, err := bad.Scores(parts, test); err == nil {
		t.Fatal("scheme without trainer should error")
	}
}
