package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// postFixture publishes the encoder, model, and upload frames of fx,
// failing the test on any non-2xx answer.
func postFixture(t *testing.T, ts *httptest.Server, fx *federationFixture) {
	t.Helper()
	for _, step := range []struct {
		path, ct string
		body     []byte
	}{
		{"/v1/encoder", "application/json", fx.encoderJSON},
		{"/v1/model", "application/octet-stream", fx.modelBytes},
		{"/v1/uploads", "application/octet-stream", fx.frames},
	} {
		resp := post(t, ts, step.path, step.ct, step.body)
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d", step.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// findSpan walks a span forest for a span with the given name.
func findSpan(views []telemetry.SpanView, name string) *telemetry.SpanView {
	for i := range views {
		if views[i].Name == name {
			return &views[i]
		}
		if c := findSpan(views[i].Children, name); c != nil {
			return c
		}
	}
	return nil
}

func TestMetricsAndTraceEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	postFixture(t, ts, fx)

	// One synchronous trace so the job and tracer instrument families have
	// observed real work.
	resp := post(t, ts, "/v1/trace?wait=60s", "text/csv", fx.testCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/trace: status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-Request-Id"); id == "" {
		t.Error("trace response missing X-Request-Id header")
	}
	resp.Body.Close()

	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	// Prometheus exposition covers every subsystem's metric family.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`ctfl_http_requests_total{route="/v1/trace"}`,
		"ctfl_http_request_seconds_bucket",
		"ctfl_http_in_flight",
		"ctfl_jobs_submitted_total 1",
		"ctfl_jobs_wait_seconds_count 1",
		`ctfl_tracer_queries_total{strategy="index"}`,
		"ctfl_tracer_trace_seconds_count 1",
		"ctfl_store_append_seconds_count",
		"ctfl_train_epochs_total",
		"# TYPE ctfl_http_request_seconds histogram",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}

	// JSON twin inside /v1/stats.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs["submitted"] != 1 || st.Jobs["done"] != 1 {
		t.Errorf("stats jobs = %v, want 1 submitted / 1 done", st.Jobs)
	}
	if _, ok := st.Telemetry["ctfl_jobs_submitted_total"]; !ok {
		t.Error("stats telemetry snapshot missing ctfl_jobs_submitted_total")
	}
	if st.Traces == 0 {
		t.Error("stats reports zero recorded traces")
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %v, want > 0", st.UptimeSeconds)
	}

	// The trace request produced the full span chain: HTTP root → async
	// job → tracer pass.
	tr, err := c.TracesRecent(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total == 0 || len(tr.Traces) == 0 {
		t.Fatalf("no recorded traces: %+v", tr)
	}
	root := findSpan(tr.Traces, "http /v1/trace")
	if root == nil {
		t.Fatalf("no 'http /v1/trace' root span among %d traces", len(tr.Traces))
	}
	if root.Attrs["request_id"] == nil || root.Attrs["status"] == nil {
		t.Errorf("root span attrs missing request_id/status: %v", root.Attrs)
	}
	job := findSpan(root.Children, "job.trace")
	if job == nil {
		t.Fatalf("root span has no job.trace child: %+v", root)
	}
	if findSpan(job.Children, "tracer.trace") == nil {
		t.Fatalf("job.trace span has no tracer.trace child: %+v", job)
	}
}

func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf lockedBuffer
	s, err := NewWithOptions(Options{Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "reqid-test-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "reqid-test-42" {
		t.Errorf("X-Request-Id echoed as %q, want caller's id", got)
	}

	found := false
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		var rec map[string]any
		if json.Unmarshal(line, &rec) != nil || rec["msg"] != "request" || rec["request_id"] != "reqid-test-42" {
			continue
		}
		found = true
		if rec["route"] != "/healthz" || rec["status"] != 200.0 {
			t.Errorf("access log record missing route/status: %v", rec)
		}
	}
	if !found {
		t.Fatalf("no access-log record carries the request id; got %q", buf.Bytes())
	}
}

// lockedBuffer is a bytes.Buffer safe for a handler writing from the
// serving goroutines while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.Clone(b.buf.Bytes())
}

// TestConcurrentScrapeWhileUploading exercises the metric registry, span
// log, and stats endpoint while lifecycle mutations and traces are in
// flight — the race detector is the assertion.
func TestConcurrentScrapeWhileUploading(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	fx := buildFederation(t)
	ts := httptest.NewServer(New())
	defer ts.Close()
	postFixture(t, ts, fx)

	c := &Client{BaseURL: ts.URL}
	ctx := context.Background()
	var wg sync.WaitGroup
	const iters = 8

	wg.Add(1)
	go func() { // uploads keep mutating federation state
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/v1/uploads", "application/octet-stream", bytes.NewReader(fx.frames))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Add(1)
	go func() { // traces keep the job engine and tracer busy
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/v1/trace?wait=60s", "text/csv", bytes.NewReader(fx.testCSV))
			if err == nil {
				resp.Body.Close()
			}
		}
	}()
	for _, scrape := range []func() error{
		func() error { _, err := c.Metrics(ctx); return err },
		func() error { _, err := c.Stats(ctx); return err },
		func() error { _, err := c.TracesRecent(ctx, 10); return err },
	} {
		wg.Add(1)
		go func(f func() error) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}(scrape)
	}
	wg.Wait()
}
