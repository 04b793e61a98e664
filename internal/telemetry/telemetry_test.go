package telemetry

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ctfl_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("ctfl_test_total", ""); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	g := r.Gauge("ctfl_test_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v", g.Value())
	}

	// Nil handles are safe no-ops: disabled telemetry must never panic.
	var nc *Counter
	var ng *Gauge
	var nh *Histogram
	nc.Add(1)
	ng.Set(1)
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Snapshot().Count != 0 {
		t.Fatal("nil instruments not inert")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ctfl_x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("ctfl_x", "")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5) // uniform over [0.5, 7.5]
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum < 390 || s.Sum > 410 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if s.P50 < 1 || s.P50 > 5 {
		t.Fatalf("p50 = %v", s.P50)
	}
	if s.P99 < s.P50 || s.P99 > 8 {
		t.Fatalf("p99 = %v (p50 %v)", s.P99, s.P50)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`ctfl_http_requests_total{route="/v1/trace"}`, "requests").Add(3)
	r.Counter(`ctfl_http_requests_total{route="/healthz"}`, "requests").Add(1)
	r.Gauge("ctfl_http_in_flight", "in-flight requests").Set(2)
	r.Histogram(`ctfl_http_request_seconds{route="/v1/trace"}`, "latency", []float64{0.1, 1}).Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE ctfl_http_requests_total counter",
		`ctfl_http_requests_total{route="/v1/trace"} 3`,
		`ctfl_http_requests_total{route="/healthz"} 1`,
		"# TYPE ctfl_http_in_flight gauge",
		"ctfl_http_in_flight 2",
		"# TYPE ctfl_http_request_seconds histogram",
		`ctfl_http_request_seconds_bucket{route="/v1/trace",le="0.1"} 0`,
		`ctfl_http_request_seconds_bucket{route="/v1/trace",le="1"} 1`,
		`ctfl_http_request_seconds_bucket{route="/v1/trace",le="+Inf"} 1`,
		`ctfl_http_request_seconds_sum{route="/v1/trace"} 0.5`,
		`ctfl_http_request_seconds_count{route="/v1/trace"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// TYPE must appear exactly once per family even with several label sets.
	if strings.Count(out, "# TYPE ctfl_http_requests_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(7)
	r.Gauge("g", "").Set(1.25)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["c"].(int64) != 7 || snap["g"].(float64) != 1.25 {
		t.Fatalf("snapshot = %v", snap)
	}
	if hs := snap["h"].(HistogramSnapshot); hs.Count != 1 {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestSpanTreeRecording(t *testing.T) {
	log := NewSpanLog(4)
	ctx := WithSpanLog(context.Background(), log)
	ctx, root := StartSpan(ctx, "http /v1/trace")
	root.SetAttr("request_id", "abc123")
	cctx, child := StartSpan(ctx, "job.trace")
	_, grand := StartSpan(cctx, "tracer.trace")
	grand.End()
	child.End()
	root.End()

	views := log.Recent(10)
	if len(views) != 1 {
		t.Fatalf("recent = %d traces", len(views))
	}
	v := views[0]
	if v.Name != "http /v1/trace" || v.Attrs["request_id"] != "abc123" {
		t.Fatalf("root = %+v", v)
	}
	if len(v.Children) != 1 || v.Children[0].Name != "job.trace" {
		t.Fatalf("children = %+v", v.Children)
	}
	if len(v.Children[0].Children) != 1 || v.Children[0].Children[0].Name != "tracer.trace" {
		t.Fatalf("grandchildren = %+v", v.Children[0].Children)
	}
}

func TestSpanDisabledWithoutLog(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "anything")
	if s != nil {
		t.Fatal("span created without a SpanLog")
	}
	// All operations on the nil span are no-ops.
	s.SetAttr("k", "v")
	s.End()
	if ctx == nil {
		t.Fatal("ctx lost")
	}
}

func TestSpanLogRingEviction(t *testing.T) {
	log := NewSpanLog(2)
	for i := 0; i < 5; i++ {
		ctx := WithSpanLog(context.Background(), log)
		_, s := StartSpan(ctx, fmt.Sprintf("span-%d", i))
		s.End()
	}
	views := log.Recent(0)
	if len(views) != 2 {
		t.Fatalf("retained %d, want 2", len(views))
	}
	if views[0].Name != "span-4" || views[1].Name != "span-3" {
		t.Fatalf("order = %s, %s", views[0].Name, views[1].Name)
	}
	if log.Total() != 5 {
		t.Fatalf("total = %d", log.Total())
	}
}

func TestRequestIDPropagation(t *testing.T) {
	id := NewRequestID()
	if len(id) != 16 {
		t.Fatalf("id %q", id)
	}
	if id2 := NewRequestID(); id2 == id {
		t.Fatalf("ids not unique: %q", id)
	}
	ctx := WithRequestID(context.Background(), id)
	if got := RequestIDFrom(ctx); got != id {
		t.Fatalf("got %q want %q", got, id)
	}
	if RequestIDFrom(context.Background()) != "" {
		t.Fatal("empty context produced an id")
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	log := NewSpanLog(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("shared_total", "")
			h := r.Histogram("shared_seconds", "", nil)
			for i := 0; i < 200; i++ {
				c.Inc()
				h.Observe(float64(i) / 1000)
				ctx := WithSpanLog(context.Background(), log)
				ctx, s := StartSpan(ctx, "op")
				_, cs := StartSpan(ctx, "child")
				cs.End()
				s.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		// Concurrent scrapes while writers are hot.
		for i := 0; i < 50; i++ {
			var b strings.Builder
			r.WritePrometheus(&b)
			_ = r.Snapshot()
			_ = log.Recent(8)
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared_total", "").Value(); got != 8*200 {
		t.Fatalf("counter = %d", got)
	}
	if hs := r.Histogram("shared_seconds", "", nil).Snapshot(); hs.Count != 8*200 {
		t.Fatalf("histogram count = %d", hs.Count)
	}
}
