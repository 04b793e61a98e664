package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/protocol"
	"repro/internal/rules"
)

// buildCount scrapes how many tracing indexes the server has built.
func buildCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	text, err := (&Client{BaseURL: ts.URL}).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "ctfl_tracer_build_seconds_count "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("/metrics has no ctfl_tracer_build_seconds_count")
	return 0
}

// postTrace posts one synchronous trace and returns its result frame (the
// exact bits of every score) and whether the job cache served it.
func postTrace(ts *httptest.Server, tau float64, delta int, csv []byte) ([]byte, bool, error) {
	path := fmt.Sprintf("/v1/trace?tau=%s&delta=%d&wait=60s", strconv.FormatFloat(tau, 'g', -1, 64), delta)
	resp, err := http.Post(ts.URL+path, "text/csv", bytes.NewReader(csv))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	var env TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK || env.Result == nil {
		return nil, false, fmt.Errorf("trace tau=%v delta=%d: status %d, job %+v", tau, delta, resp.StatusCode, env)
	}
	return protocol.AppendTraceResult(nil, env.Result), env.CacheHit, nil
}

func traceJob(t *testing.T, ts *httptest.Server, tau float64, delta int, csv []byte) ([]byte, bool) {
	t.Helper()
	frame, hit, err := postTrace(ts, tau, delta, csv)
	if err != nil {
		t.Fatal(err)
	}
	return frame, hit
}

// freshTrace is the reference for one trace: a tracer built from scratch
// over the server's current rules and uploads with the given tau and delta.
// It decodes the held frames one by one through the legacy DecodeUpload →
// ToTrainingUploads path, independent of the index build's decoder.
func freshTrace(t *testing.T, s *Server, tau float64, delta int, csv []byte) []byte {
	t.Helper()
	s.mu.RLock()
	st := s.st
	s.mu.RUnlock()
	test, err := parseRoundEval(st.enc, csv)
	if err != nil {
		t.Fatal(err)
	}
	ups := make([]*protocol.Upload, len(st.frames))
	for i, f := range st.frames {
		if ups[i], err = protocol.DecodeUpload(f); err != nil {
			t.Fatal(err)
		}
	}
	records, err := protocol.ToTrainingUploads(ups, st.rs.Width(), st.parts)
	if err != nil {
		t.Fatal(err)
	}
	res := core.NewTracerFromUploads(st.rs, st.parts, records, core.Config{TauW: tau, Delta: delta}).Trace(test)
	return protocol.AppendTraceResult(nil, traceResponse(res))
}

// TestTraceIndexBuiltOncePerGeneration pins the shared tracing index: a
// state's trace misses build one index between them, whatever their tau and
// delta and however many run at once; each publish that changes the
// tracer's inputs costs exactly one more build; and every answer is
// bit-identical to a fresh build with the same tau and delta.
func TestTraceIndexBuiltOncePerGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)
	if n := buildCount(t, ts); n != 0 {
		t.Fatalf("%d index builds before any trace, want 0", n)
	}

	check := func(stage string, tau float64, delta int) {
		t.Helper()
		got, hit := traceJob(t, ts, tau, delta, fx.testCSV)
		if hit {
			t.Fatalf("%s: tau=%v delta=%d served from cache, want a miss", stage, tau, delta)
		}
		if want := freshTrace(t, s, tau, delta, fx.testCSV); !bytes.Equal(got, want) {
			t.Fatalf("%s: tau=%v delta=%d differs from a fresh build", stage, tau, delta)
		}
	}
	wantBuilds := func(stage string, want int) {
		t.Helper()
		if n := buildCount(t, ts); n != want {
			t.Fatalf("%s: %d index builds, want %d", stage, n, want)
		}
	}

	// Concurrent misses on a state nobody has traced yet build once.
	var wg sync.WaitGroup
	results := make([][]byte, 6)
	errs := make([]error, len(results))
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _, errs[g] = postTrace(ts, 0.8+0.03*float64(g), 1+g%3, fx.testCSV)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	wantBuilds("concurrent misses", 1)
	for g, got := range results {
		tau, delta := 0.8+0.03*float64(g), 1+g%3
		if !bytes.Equal(got, freshTrace(t, s, tau, delta, fx.testCSV)) {
			t.Fatalf("concurrent miss tau=%v delta=%d differs from a fresh build", tau, delta)
		}
	}

	// Sequential misses with further distinct parameters reuse the index.
	for i, p := range []struct {
		tau   float64
		delta int
	}{{0.9, 2}, {0.75, 1}, {1, 3}, {0.6, 4}} {
		check(fmt.Sprintf("sequential miss %d", i), p.tau, p.delta)
	}
	wantBuilds("sequential misses", 1)

	// Each publish that changes rules or uploads starts one new index.
	if resp := post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames); resp.StatusCode != http.StatusOK {
		t.Fatalf("uploads status %d", resp.StatusCode)
	}
	check("after upload", 0.9, 2)
	check("after upload", 0.85, 1)
	wantBuilds("after upload", 2)

	publishAll(t, ts, fx)
	check("after encoder, model and upload publish", 0.9, 2)
	wantBuilds("after encoder, model and upload publish", 3)

	if resp := post(t, ts, "/v1/model", "application/octet-stream", fx.modelBytes); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("model status %d", resp.StatusCode)
	}
	if resp := post(t, ts, "/v1/uploads", "application/octet-stream", fx.frames); resp.StatusCode != http.StatusOK {
		t.Fatalf("uploads status %d", resp.StatusCode)
	}
	check("after model and upload publish", 0.95, 2)
	wantBuilds("after model and upload publish", 4)
}

// TestRoundIngestKeepsTraceCache: registering an evaluation set and pushing
// a round change nothing the tracer reads, so a repeated trace is a cache
// hit with the identical answer and no new index.
func TestRoundIngestKeepsTraceCache(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildStreamFederation(t)
	ctx := context.Background()
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	if err := c.PublishEncoder(ctx, fx.enc); err != nil {
		t.Fatal(err)
	}
	if err := c.PublishModel(ctx, fx.sim.Model); err != nil {
		t.Fatal(err)
	}
	rs := rules.Extract(fx.sim.Model, fx.enc)
	for pi, p := range fx.parts {
		acts, _ := rs.ActivationsTable(p.Data)
		up := &protocol.Upload{Participant: pi, RuleWidth: rs.Width()}
		for i, a := range acts {
			up.Records = append(up.Records, protocol.Record{Label: p.Data.Instances[i].Label, Activations: a})
		}
		if err := c.UploadActivations(ctx, up); err != nil {
			t.Fatal(err)
		}
	}
	var csv bytes.Buffer
	if err := dataset.WriteCSV(&csv, fx.test); err != nil {
		t.Fatal(err)
	}

	first, hit := traceJob(t, ts, 0.9, 2, csv.Bytes())
	if hit {
		t.Fatal("first trace served from cache")
	}
	if err := c.PublishRoundEval(ctx, fx.test); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushRound(ctx, 0, fx.wireRounds()[0]); err != nil {
		t.Fatal(err)
	}
	again, hit := traceJob(t, ts, 0.9, 2, csv.Bytes())
	if !hit {
		t.Fatal("trace after round ingest missed the cache")
	}
	if !bytes.Equal(again, first) {
		t.Fatal("cached trace after round ingest differs from the first answer")
	}
	if n := buildCount(t, ts); n != 1 {
		t.Fatalf("%d index builds across round ingest, want 1", n)
	}
}

// TestTraceKeyDistinguishesAdjacentTau: the cache key carries tau's exact
// bits, so neighbouring floats never share a cached result.
func TestTraceKeyDistinguishesAdjacentTau(t *testing.T) {
	body := []byte("a,b\n1,0\n")
	// The middle values sit between multiples of 1e-12, where a key that
	// rounds tau to 1e-12 maps both neighbours to one key.
	for _, tau := range []float64{0.9, 0.75 + 0.5e-12, 0.1234567890123, 1e-9, 1} {
		for _, next := range []float64{math.Nextafter(tau, 0), math.Nextafter(tau, 2)} {
			if traceKey(body, tau, 2, 1) == traceKey(body, next, 2, 1) {
				t.Errorf("tau %v and its neighbour %v share a trace key", tau, next)
			}
		}
	}
	if traceKey(body, 0.9, 2, 1) != traceKey(body, 0.9, 2, 1) {
		t.Error("trace key is not deterministic")
	}
	if traceKey(body, 0.9, 2, 1) == traceKey(body, 0.9, 2, 2) {
		t.Error("trace key ignores the tracer-input generation")
	}
}

// TestTraceIndexDecodeErrorFailsJob: frames the index build cannot decode
// fail the trace job with the decoder's error instead of panicking a
// worker, and no index is built.
func TestTraceIndexDecodeErrorFailsJob(t *testing.T) {
	fx := buildFederation(t)
	s := New()
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)
	s.mu.Lock()
	s.st.records++ // the headers no longer sum to the count
	s.st.newTracerInputs()
	s.mu.Unlock()

	resp := post(t, ts, "/v1/trace?wait=60s", "text/csv", fx.testCSV)
	defer resp.Body.Close()
	var env TraceJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError || env.Status != "failed" ||
		!strings.Contains(env.Error, "records") {
		t.Fatalf("status %d, job %+v; want a failed job naming the record count", resp.StatusCode, env)
	}
	if n := buildCount(t, ts); n != 0 {
		t.Fatalf("%d index builds, want 0", n)
	}
}
