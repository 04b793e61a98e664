package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fl"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/rules"
	"repro/internal/stats"
)

// federationFixture trains a small tic-tac-toe federation and prepares the
// three payloads a real deployment would post: encoder JSON, model bytes,
// and per-participant protocol frames, plus the reserved test CSV.
type federationFixture struct {
	encoderJSON []byte
	modelBytes  []byte
	frames      []byte
	testCSV     []byte
	parts       int
}

func buildFederation(t testing.TB) *federationFixture {
	t.Helper()
	tab := dataset.TicTacToe()
	r := stats.NewRNG(3)
	train, test := tab.Split(r, 0.25)
	enc, err := dataset.NewEncoder(tab.Schema, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	parts := fl.PartitionSkewLabel(train, 3, 0.8, r)
	trainer := fl.NewTrainer(enc, fl.TrainConfig{
		Rounds: 1, LocalEpochs: 6, Parallel: true,
		Model: nn.Config{Hidden: []int{32}, Grafting: true, Seed: 2},
	})
	model, err := trainer.Train(parts)
	if err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(model, enc)

	fx := &federationFixture{parts: len(parts)}
	if fx.encoderJSON, err = json.Marshal(enc); err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if _, err := model.WriteTo(&mb); err != nil {
		t.Fatal(err)
	}
	fx.modelBytes = mb.Bytes()

	var frames bytes.Buffer
	for pi, p := range parts {
		acts, _ := rs.ActivationsTable(p.Data)
		up := &protocol.Upload{Participant: pi, RuleWidth: rs.Width()}
		for i, a := range acts {
			up.Records = append(up.Records, protocol.Record{
				Label:       p.Data.Instances[i].Label,
				Activations: a,
			})
		}
		if err := up.Write(&frames); err != nil {
			t.Fatal(err)
		}
	}
	fx.frames = frames.Bytes()

	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, test); err != nil {
		t.Fatal(err)
	}
	fx.testCSV = csv.Bytes()
	return fx
}

func post(t *testing.T, ts *httptest.Server, path, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFullLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()

	// Health before setup.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["encoder"] != false {
		t.Fatalf("fresh server health = %v", health)
	}

	// Lifecycle: encoder → model → uploads → trace.
	if resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("encoder status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	resp = post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uploads status %d", resp.StatusCode)
	}
	var upInfo map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&upInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if upInfo["frames"] != fx.parts || upInfo["records"] == 0 {
		t.Fatalf("upload info = %v", upInfo)
	}

	resp = post(t, ts, "/v1/trace?tau=0.9&delta=2&wait=60s", "text/csv", fx.testCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var env TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env.Status != "done" || env.Result == nil {
		t.Fatalf("trace job = %+v", env)
	}
	tr := *env.Result
	if len(tr.Micro) != fx.parts || len(tr.Macro) != fx.parts {
		t.Fatalf("score widths: %d/%d", len(tr.Micro), len(tr.Macro))
	}
	if tr.Accuracy < 0.5 {
		t.Fatalf("accuracy %v implausible", tr.Accuracy)
	}
	sum := 0.0
	for _, s := range tr.Micro {
		sum += s
	}
	if diff := sum - (tr.Accuracy - tr.CoverageGap); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("group rationality over HTTP: sum %v vs %v-%v", sum, tr.Accuracy, tr.CoverageGap)
	}

	// Tracing must be repeatable — and an identical submission against
	// unchanged state is served from the content-hash cache.
	resp = post(t, ts, "/v1/trace?tau=0.9&wait=60s", "text/csv", fx.testCSV)
	var env2 TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env2.Result == nil {
		t.Fatalf("repeat trace job = %+v", env2)
	}
	if !env2.CacheHit {
		t.Fatal("identical trace not served from cache")
	}
	tr2 := *env2.Result
	for i := range tr.Micro {
		if tr.Micro[i] != tr2.Micro[i] {
			t.Fatal("trace is not repeatable")
		}
	}

	// Rules endpoint.
	resp, err = http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	var rls []RuleJSON
	if err := json.NewDecoder(resp.Body).Decode(&rls); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rls) == 0 || rls[0].Expr == "" {
		t.Fatalf("rules = %v", rls)
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()

	// Model before encoder → conflict.
	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusConflict {
		t.Fatalf("model-first status %d", resp.StatusCode)
	}
	// Uploads before model → conflict.
	if resp := post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames); resp.StatusCode != http.StatusConflict {
		t.Fatalf("uploads-first status %d", resp.StatusCode)
	}
	// Trace before anything → conflict.
	if resp := post(t, ts, "/v1/trace", "text/csv", fx.testCSV); resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace-first status %d", resp.StatusCode)
	}
	// Rules before model → conflict.
	resp, err := http.Get(ts.URL + "/v1/rules")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rules-first status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Proper order, then trace without uploads → conflict.
	post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes)
	if resp := post(t, ts, "/v1/trace", "text/csv", fx.testCSV); resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace-without-uploads status %d", resp.StatusCode)
	}
}

func TestBadInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes)

	// Corrupt model bytes.
	bad := append([]byte(nil), fx.modelBytes...)
	bad[10] ^= 0xFF
	if resp := post(t, ts, "/v1/model", "application/octet-stream", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt model status %d", resp.StatusCode)
	}
	// Corrupt frames.
	badFrames := append([]byte(nil), fx.frames...)
	badFrames[12] ^= 0xFF
	if resp := post(t, ts, "/v1/uploads", "application/octet-stream", badFrames); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frames status %d", resp.StatusCode)
	}
	// Bad JSON encoder.
	if resp := post(t, ts, "/v1/encoder", "application/json", []byte("{")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad encoder status %d", resp.StatusCode)
	}
	// Re-publish valid state and check bad tau.
	post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes)
	post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames)
	if resp := post(t, ts, "/v1/trace?tau=1.5", "text/csv", fx.testCSV); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tau status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/trace?tau=abc", "text/csv", fx.testCSV); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric tau status %d", resp.StatusCode)
	}
	// Malformed CSV.
	if resp := post(t, ts, "/v1/trace", "text/csv", []byte("nonsense,csv\n1,2\n")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad csv status %d", resp.StatusCode)
	}
	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET trace status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestErrorBodyIsJSON(t *testing.T) {
	ts := httptest.NewServer(New())
	defer ts.Close()
	resp := post(t, ts, "/v1/model", "application/octet-stream", []byte("junk"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(body["error"], "nn:") {
		t.Fatalf("error body = %v", body)
	}
}

// testLogger returns a logger whose records go to t.Log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testWriter{t}, nil))
}

type testWriter struct{ t testing.TB }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
