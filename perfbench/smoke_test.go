package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/rounds"
)

// nodeBin is a ctflsrv built from this checkout for the service smoke runs.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	nodeBin = filepath.Join(dir, "ctflsrv")
	build := exec.Command("go", "build", "-o", nodeBin, "repro/cmd/ctflsrv")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building ctflsrv:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smokeConfig(t *testing.T, workload string, trace bool, keep string) runConfig {
	return runConfig{
		workload: workload, seed: 3, seconds: 1, trace: trace, nodeBin: nodeBin,
		dir: t.TempDir(), keepDir: keep, source: "smoke",
	}
}

// requireChecks fails unless the run is correct, lost no operation, and ran
// every named check.
func requireChecks(t *testing.T, out *outcome, names ...string) {
	t.Helper()
	ran := map[string]bool{}
	for _, c := range out.checks {
		ran[c.name] = true
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	for _, n := range names {
		if !ran[n] {
			t.Errorf("check %s never ran", n)
		}
	}
	if out.failed != 0 || !out.correct() || out.attempted == 0 {
		t.Errorf("attempted %d, failed %d, correct %v; notes %v", out.attempted, out.failed, out.correct(), out.notes)
	}
}

// requireLayers fails unless every named per-layer metric was measured.
func requireLayers(t *testing.T, out *outcome, prefixes ...string) {
	t.Helper()
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) && out.layers[d.name] == 0 && d.name != "store.compactions" && d.name != "store.compact_ms" {
				t.Errorf("per-layer %s not measured", d.name)
			}
		}
	}
}

func TestPaperBatchSmoke(t *testing.T) {
	keep := t.TempDir()
	sz := batchSizes{iters: 2, ctflPerIter: 2}
	out, err := runBatchSized(smokeConfig(t, "paper-batch", false, keep), sz)
	if err != nil {
		t.Fatal(err)
	}
	requireChecks(t, out, "ctfl.group-rationality", "scores.hash-stable")
	for _, d := range endToEnd {
		if out.e2e[d.name] <= 0 {
			t.Errorf("end-to-end %s = %v", d.name, out.e2e[d.name])
		}
	}
	// A second, traced run at the same seed must reproduce the scores of
	// the first bit for bit, and account for the CTFL pass stage by stage.
	out, err = runBatchSized(smokeConfig(t, "paper-batch", true, keep), sz)
	if err != nil {
		t.Fatal(err)
	}
	requireChecks(t, out, "ctfl.group-rationality", "scores.hash-stable", "scores.same-across-runs", "ctfl.stage-sum")
	requireLayers(t, out, "dataset.materialize", "fl.", "rules.", "core.build", "core.trace", "core.alloc", "valuation.")
}

func TestServiceIngestSmoke(t *testing.T) {
	sz := ingestSizes{frames: 8, recordsPerFrame: 32, uploads: 24, rounds: 16, repeatEvery: 4}
	out, err := runIngestSized(smokeConfig(t, "service-ingest", true, t.TempDir()), sz)
	if err != nil {
		t.Fatal(err)
	}
	requireChecks(t, out, "rounds.replies", "restart.scores", "restart.uploads",
		"metrics.store appends", "metrics.store bytes", "metrics.rounds evals", "metrics.rounds skipped",
		"replay.store-events", "replay.rounds")
	if want := int64(federations * (sz.uploads + sz.rounds + 2)); out.attempted != want {
		t.Errorf("attempted %d, want %d", out.attempted, want)
	}
	if got := out.layers["rounds.skip_ratio"]; got != 0.25 {
		t.Errorf("rounds.skip_ratio = %v, want exactly 1/repeatEvery", got)
	}
	requireLayers(t, out, "protocol.validate", "protocol.decode", "store.", "rounds.compute", "rounds.apply",
		"rounds.evals", "rounds.replay", "server.upload", "server.round")
}

func TestServiceQuerySmoke(t *testing.T) {
	sz := querySizes{frames: 4, recordsPerFrame: 64, preRounds: 8, batches: 2, batchRows: 4,
		reads: 16, traces: 8, traceRows: 16, repeatEvery: 4}
	out, err := runQuerySized(smokeConfig(t, "service-query", true, t.TempDir()), sz)
	if err != nil {
		t.Fatal(err)
	}
	requireChecks(t, out, "predict.scores", "scores.snapshot", "trace.results",
		"metrics.jobs lookups", "metrics.jobs cache hits", "metrics.tracer dedup hits")
	requireLayers(t, out, "dataset.read_csv", "core.", "protocol.predict", "rounds.snapshot", "jobs.", "nn.",
		"server.predict", "server.scores", "server.trace")
}

// The output checks count a wrong answer as a failed operation.
func TestChecksCountWrongAnswers(t *testing.T) {
	out := newOutcome()
	if !out.checkCTFL(&ctflResult{micro: []float64{0.25, 0.25}, accuracy: 0.75, gap: 0.25}, 1) {
		t.Error("consistent CTFL scores rejected")
	}
	if out.checkCTFL(&ctflResult{micro: []float64{0.25, 0.25}, accuracy: 0.75, gap: 0.2}, 2) {
		t.Error("sum(micro) != accuracy - gap accepted")
	}

	ref := &roundReplay{outs: []*rounds.Outcome{{Round: 1, VFull: 0.5, Evals: 3}, {Round: 2, VFull: 0.5, Skipped: true, Evals: 1}}}
	out = newOutcome()
	out.checkRounds([]*roundReply{{Round: 1, GlobalUtility: 0.5, Evals: 3}, {Round: 2, GlobalUtility: 0.5, Evals: 1}}, ref)
	if out.failed != 1 || out.correct() {
		t.Errorf("a round reply that missed its skip: failed %d, correct %v", out.failed, out.correct())
	}

	want := &protocol.TraceResult{Accuracy: 0.9, Micro: []float64{0.5, 0.4}, Suspects: []int{1}}
	wrong := &protocol.TraceResult{Accuracy: 0.9, Micro: []float64{0.5, math.Nextafter(0.4, 1)}, Suspects: []int{1}}
	out = newOutcome()
	out.checkTraces([]int{0, 0}, []*protocol.TraceResult{want, wrong}, []*protocol.TraceResult{want})
	if out.failed != 1 {
		t.Errorf("a trace differing in the last bit: failed %d", out.failed)
	}

	snap := protocol.ScoresSnapshot{Rounds: 2, Scores: []float64{1, 2}}
	out = newOutcome()
	out.checkScores(snap, []*protocol.ScoresSnapshot{&snap, {Rounds: 2, Scores: []float64{1, 2.5}}, nil})
	if out.failed != 1 {
		t.Errorf("a wrong score read: failed %d", out.failed)
	}
}
