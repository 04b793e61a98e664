package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fedsim"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rounds"
	"repro/internal/stats"
	"repro/internal/valuation"
)

// streamFixture is the streaming-valuation federation: size skew aligned
// with graded label poisoning, so contribution ranking is unambiguous, plus
// the fedsim round stream a live federation would push.
type streamFixture struct {
	enc     *dataset.Encoder
	trainer *fl.Trainer
	parts   []*fl.Participant
	test    *dataset.Table
	sim     *fedsim.Result
}

func buildStreamFederation(t testing.TB) *streamFixture {
	t.Helper()
	tab := dataset.TicTacToe()
	r := stats.NewRNG(23)
	train, test := tab.Split(r, 0.25)
	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(train.Len())
	fracs := []float64{0.30, 0.25, 0.20, 0.15, 0.10}
	parts := make([]*fl.Participant, len(fracs))
	at := 0
	for i, f := range fracs {
		n := int(f * float64(train.Len()))
		if i == len(fracs)-1 {
			n = train.Len() - at
		}
		parts[i] = &fl.Participant{ID: i, Name: string(rune('A' + i)), Data: train.Subset(perm[at : at+n])}
		at += n
	}
	parts[1] = fl.FlipLabels(parts[1], 0.12, r)
	parts[2] = fl.FlipLabels(parts[2], 0.30, r)
	parts[3] = fl.FlipLabels(parts[3], 0.60, r)
	parts[4] = fl.FlipLabels(parts[4], 1.0, r)

	model := nn.Config{Hidden: []int{16}, Seed: 7, BatchSize: 128}
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 2, LocalEpochs: 3, Parallel: true, Model: model, Seed: 23,
	})
	sim, err := fedsim.Run(enc, parts, test, fedsim.Config{
		Rounds: 8, LocalEpochs: 3, Model: model, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &streamFixture{enc: enc, trainer: trainer, parts: parts, test: test, sim: sim}
}

// wireRounds converts the fedsim stream into wire participants per round.
func (fx *streamFixture) wireRounds() [][]protocol.RoundParticipant {
	var out [][]protocol.RoundParticipant
	for _, ups := range fx.sim.Updates {
		parts := make([]protocol.RoundParticipant, len(ups))
		for i, u := range ups {
			parts[i] = protocol.RoundParticipant{ID: u.Participant, Weight: u.Weight, Params: u.Params}
		}
		out = append(out, parts)
	}
	return out
}

func jsonGet(ts *httptest.Server, path string, out any) error {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func requireBitEqualScores(t *testing.T, stage string, got, want *protocol.ScoresSnapshot) {
	t.Helper()
	if got.Rounds != want.Rounds || got.Skipped != want.Skipped || len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: snapshot %+v, want %+v", stage, got, want)
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("%s: score %d = %x, want %x", stage, i,
				math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
}

// TestStreamingScoresEndToEnd is the subsystem's acceptance test: a
// fedsim-driven client streams rounds through a real durable server, the
// server crashes mid-stream and resumes bit-identically from the WAL with
// zero recomputation, the finished stream's ranking matches batch Shapley,
// and the truncation counters surface in /metrics.
func TestStreamingScoresEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	stream := fx.wireRounds()
	dir := t.TempDir()
	ctx := context.Background()

	s1 := newDurable(t, dir)
	ts1 := httptest.NewServer(s1)
	c := &Client{BaseURL: ts1.URL}
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}

	// Scores before an evaluation set is registered: 409.
	if _, err := c.Scores(ctx, 0, 0); err == nil {
		t.Fatal("scores served before evaluation set registration")
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}

	cut := len(stream) / 2
	for round := 0; round < cut; round++ {
		resp, err := c.PushRound(ctx, round, stream[round])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if resp.Round != round {
			t.Fatalf("round %d acknowledged as %d", round, resp.Round)
		}
	}
	// A duplicate round number must be rejected, not double-counted.
	if _, err := c.PushRound(ctx, 0, stream[0]); err == nil {
		t.Fatal("duplicate round accepted")
	}
	beforeCrash, err := c.Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close() // crash: no graceful Close, no final snapshot — WAL only

	// Restart from the same data dir: scores must come back bit-identically
	// without a single coalition reconstruction.
	s2 := newDurable(t, dir)
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer closeServer(t, s2)
	c = &Client{BaseURL: ts2.URL}
	afterCrash, err := c.Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireBitEqualScores(t, "after WAL recovery", afterCrash, beforeCrash)
	var sr ScoresResponse
	if err := jsonGet(ts2, "/v1/scores", &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Evals != 0 {
		t.Fatalf("restored engine reports %d coalition evals, want 0 (pure WAL arithmetic)", sr.Evals)
	}

	// Resume the stream on the restarted server, long-polling the last
	// round's snapshot through the ?wait= path.
	for round := cut; round < len(stream); round++ {
		if _, err := c.PushRound(ctx, round, stream[round]); err != nil {
			t.Fatalf("round %d after restart: %v", round, err)
		}
	}
	// Re-push the final updates as one extra round: the global model did not
	// move, so between-round truncation must skip it.
	skipResp, err := c.PushRound(ctx, len(stream), stream[len(stream)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !skipResp.Skipped {
		t.Fatalf("identical round not skipped: %+v", skipResp)
	}
	final, err := c.Scores(ctx, len(stream)+1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Rounds != len(stream)+1 || final.Skipped < 1 {
		t.Fatalf("final snapshot %+v, want %d rounds with skips", final, len(stream)+1)
	}

	// The interrupted, restarted stream must equal an uninterrupted local
	// engine over the same rounds — the whole-system determinism check.
	evalX, evalY := fx.enc.EncodeTable(fx.test)
	ref, err := rounds.New(rounds.Config{Model: fx.sim.Model, EvalX: evalX, EvalY: evalY})
	if err != nil {
		t.Fatal(err)
	}
	pushLocal := func(round int, parts []protocol.RoundParticipant) {
		frame, err := protocol.AppendRoundUpdate(nil, round, parts)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _ := protocol.ParseFrame(frame)
		u, err := protocol.ParseRoundUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ref.Compute(u)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Apply(out); err != nil {
			t.Fatal(err)
		}
	}
	for round, parts := range stream {
		pushLocal(round, parts)
	}
	pushLocal(len(stream), stream[len(stream)-1])
	refSnap := ref.Snapshot()
	requireBitEqualScores(t, "vs uninterrupted engine", final, &refSnap)

	// Ranking must agree with retraining-based batch Shapley ground truth.
	oracle, err := valuation.NewOracle(fx.trainer, fx.parts, fx.test)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := valuation.ExactShapley(len(fx.parts), oracle.Utility)
	if err != nil {
		t.Fatal(err)
	}
	rho := stats.Spearman(final.Scores, truth)
	t.Logf("streamed %v vs batch %v (rho %.3f)", final.Scores, truth, rho)
	if rho < 0.9 {
		t.Fatalf("Spearman rho %.3f < 0.9 against batch Shapley", rho)
	}

	// The truncation telemetry must surface on /metrics.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ctfl_rounds_ingested_total",
		"ctfl_rounds_skipped_total",
		"ctfl_rounds_score_staleness_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %s", want)
		}
	}
	if strings.Contains(metrics, "ctfl_rounds_skipped_total 0\n") {
		t.Fatal("skip counter still zero after a truncated round")
	}
}

// TestRoundRouteValidation pins the ingest guards: bad frames, trailing
// bytes, missing prerequisites, and content-type negotiation on /v1/scores.
func TestRoundRouteValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	stream := fx.wireRounds()
	ts := httptest.NewServer(New())
	defer ts.Close()
	ctx := context.Background()
	c := &Client{BaseURL: ts.URL}

	// Round updates before any engine exists: 409.
	if _, err := c.PushRound(ctx, 0, stream[0]); err == nil {
		t.Fatal("round accepted before evaluation set registration")
	}
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}

	// A structurally broken frame is a 400.
	frame, err := protocol.AppendRoundUpdate(nil, 0, stream[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)/2] ^= 0x40
	if resp := post(t, ts, "/v1/rounds", protocol.ContentTypeFrame, corrupt); resp.StatusCode != 400 {
		t.Fatalf("corrupt frame status %d", resp.StatusCode)
	}
	// Trailing bytes after the frame are a 400, same as uploads.
	if resp := post(t, ts, "/v1/rounds", protocol.ContentTypeFrame, append(append([]byte(nil), frame...), 0)); resp.StatusCode != 400 {
		t.Fatalf("trailing bytes status %d", resp.StatusCode)
	}
	// A parameter-count mismatch against the published model is rejected.
	bad := []protocol.RoundParticipant{{ID: 0, Weight: 1, Params: []float64{1, 2, 3}}}
	if _, err := c.PushRound(ctx, 0, bad); err == nil {
		t.Fatal("mismatched parameter count accepted")
	}

	if _, err := c.PushRound(ctx, 0, stream[0]); err != nil {
		t.Fatal(err)
	}
	// JSON negotiation: no Accept header yields the JSON envelope.
	var sr ScoresResponse
	if err := jsonGet(ts, "/v1/scores", &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Participants != len(fx.parts) || sr.Rounds != 1 || sr.Evals == 0 {
		t.Fatalf("JSON scores = %+v", sr)
	}
	// Re-registering the evaluation set resets the stream.
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Scores(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Rounds != 0 || len(snap.Scores) != 0 {
		t.Fatalf("stream not reset by re-registration: %+v", snap)
	}
}

// TestScoresWaitRequestCancellation is the rounds-path twin of the trace
// ?wait= regression test (TestWaitTraceRequestCancellationFreesSlot): a
// GET /v1/scores long-poll whose client disconnects mid-wait must unblock
// the handler promptly — request-context cancellation propagates into
// rounds.Engine.Wait — instead of holding the goroutine for the full wait
// duration.
func TestScoresWaitRequestCancellation(t *testing.T) {
	fx := buildFederation(t)
	s, err := NewWithOptions(Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)
	if resp := post(t, ts, "/v1/rounds", "text/csv", fx.testCSV); resp.StatusCode != http.StatusOK {
		t.Fatalf("round eval registration: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// round=999 can never be satisfied (nothing is pushed), so the handler
	// genuinely parks in Engine.Wait until the context dies.
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/scores?round=999&wait=30s", nil)
	req = req.WithContext(ctx)
	rec := httptest.NewRecorder()

	done := make(chan struct{})
	go func() {
		s.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond) // let the handler reach Engine.Wait
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still blocked 5s after request cancellation; wait=30s would hold the goroutine")
	}
	// Disconnect and timeout share the fallback: the current snapshot is
	// still written (the poller may have raced a real answer).
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 snapshot fallback", rec.Code)
	}
	var sr ScoresResponse
	if err := json.NewDecoder(rec.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Rounds != 0 {
		t.Fatalf("snapshot rounds = %d, want 0 (nothing ingested)", sr.Rounds)
	}
}

// TestContributionGateOnServer wires the ContAvg defense through the full
// service: a gated server flags the worst participant on GET /v1/scores,
// surfaces the transition as a KindGate flight event and the
// ctfl_rounds_gated_total counter, and a WAL restore rebuilds the gate
// flags bit-identically (gate state is derived, never separately logged).
func TestContributionGateOnServer(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	stream := fx.wireRounds()
	evalX, evalY := fx.enc.EncodeTable(fx.test)
	ctx := context.Background()

	pushLocal := func(e *rounds.Engine, round int, parts []protocol.RoundParticipant) {
		t.Helper()
		frame, err := protocol.AppendRoundUpdate(nil, round, parts)
		if err != nil {
			t.Fatal(err)
		}
		f, _, _ := protocol.ParseFrame(frame)
		u, err := protocol.ParseRoundUpdate(f)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Compute(u)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Apply(out); err != nil {
			t.Fatal(err)
		}
	}

	// Ungated reference run picks a threshold the worst participant is sure
	// to cross: halfway between the two lowest final scores.
	ref, err := rounds.New(rounds.Config{Model: fx.sim.Model, EvalX: evalX, EvalY: evalY})
	if err != nil {
		t.Fatal(err)
	}
	for round, parts := range stream {
		pushLocal(ref, round, parts)
	}
	final := append([]float64(nil), ref.Snapshot().Scores...)
	order := stats.ArgsortDesc(final)
	lowest, second := final[order[len(order)-1]], final[order[len(order)-2]]
	gate := &rounds.GateConfig{Threshold: (lowest + second) / 2, Warmup: 2, Hysteresis: 0.01}

	// Expected gate state: a local engine with the same gate and (default)
	// seed over the same stream.
	exp, err := rounds.New(rounds.Config{Model: fx.sim.Model, EvalX: evalX, EvalY: evalY, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	for round, parts := range stream {
		pushLocal(exp, round, parts)
	}
	expGated := exp.Gated()
	expEvents := exp.GateEvents()
	if len(expEvents) == 0 {
		t.Fatalf("threshold %.4f produced no gate transitions", gate.Threshold)
	}

	dir := t.TempDir()
	s1, err := NewWithOptions(Options{DataDir: dir, Logger: testLogger(t), RoundGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	c := &Client{BaseURL: ts1.URL}
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}
	for round, parts := range stream {
		if _, err := c.PushRound(ctx, round, parts); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	var sr ScoresResponse
	if err := jsonGet(ts1, "/v1/scores", &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Gated) != len(expGated) {
		t.Fatalf("gated flags = %v, want %v", sr.Gated, expGated)
	}
	for i := range expGated {
		if sr.Gated[i] != expGated[i] {
			t.Fatalf("gated[%d] = %v, want %v (flags %v)", i, sr.Gated[i], expGated[i], sr.Gated)
		}
	}

	// The transition surfaced as a KindGate flight event and on /metrics.
	var ev EventsResponse
	if err := jsonGet(ts1, "/v1/events", &ev); err != nil {
		t.Fatal(err)
	}
	sawGateEvent := false
	for _, e := range ev.Events {
		if e.Kind == "gate" && e.Route == "rounds.gate" && strings.Contains(e.Err, "gated") {
			sawGateEvent = true
		}
	}
	if !sawGateEvent {
		t.Fatalf("no gate flight event in %d events", len(ev.Events))
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "ctfl_rounds_gated_total") {
		t.Fatal("/metrics lacks ctfl_rounds_gated_total")
	}
	if strings.Contains(metrics, "ctfl_rounds_gated_total 0\n") {
		t.Fatal("gate counter still zero after a gating transition")
	}
	ts1.Close() // crash without graceful close: WAL only

	// Restore: gate flags must rebuild from replayed outcomes alone.
	s2, err := NewWithOptions(Options{DataDir: dir, Logger: testLogger(t), RoundGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	defer closeServer(t, s2)
	var restored ScoresResponse
	if err := jsonGet(ts2, "/v1/scores", &restored); err != nil {
		t.Fatal(err)
	}
	requireBitEqualScores(t, "after WAL recovery", &restored.ScoresSnapshot, &sr.ScoresSnapshot)
	if len(restored.Gated) != len(expGated) {
		t.Fatalf("restored gated flags = %v, want %v", restored.Gated, expGated)
	}
	for i := range expGated {
		if restored.Gated[i] != expGated[i] {
			t.Fatalf("restored gated[%d] = %v, want %v", i, restored.Gated[i], expGated[i])
		}
	}
}
