package server

// Observability surface: every route runs through a middleware that stamps
// a request id, emits a structured access-log line, counts and times the
// request, and opens the root span of the request's trace tree. The
// aggregate state is exported three ways — Prometheus text on GET /metrics,
// a JSON snapshot merged into GET /v1/stats, and recent span trees on
// GET /v1/traces/recent.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/flight"
	"repro/internal/telemetry"
)

// statusWriter captures the status code, body size, and (for failures) a
// prefix of the body a handler produced, for the access log, the root
// span, and the request's flight event.
type statusWriter struct {
	http.ResponseWriter
	code    int
	bytes   int64
	errBody []byte // first bytes of a 4xx/5xx body, for flight Err detail
}

// errBodyCap bounds the error-body prefix retained per request.
const errBodyCap = 256

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	if w.code >= 400 && len(w.errBody) < errBodyCap {
		w.errBody = append(w.errBody, p[:min(len(p), errBodyCap-len(w.errBody))]...)
	}
	return n, err
}

// errDetail renders the retained failure-body prefix as a single log-safe
// line for the flight event.
func (w *statusWriter) errDetail() string {
	if w.code < 400 || len(w.errBody) == 0 {
		return ""
	}
	return strings.TrimSpace(string(w.errBody))
}

// reqExtras carries handler-level annotations back to the middleware's
// flight event: fault injections fired and result-cache hits observed
// while serving this request.
type reqExtras struct {
	faults   int32
	cacheHit bool
}

type reqExtrasKey struct{}

func withReqExtras(ctx context.Context, ex *reqExtras) context.Context {
	return context.WithValue(ctx, reqExtrasKey{}, ex)
}

// extrasFrom returns the request's annotation slot, or nil outside the
// middleware (e.g. direct handler tests).
func extrasFrom(ctx context.Context) *reqExtras {
	ex, _ := ctx.Value(reqExtrasKey{}).(*reqExtras)
	return ex
}

// route registers a handler behind the telemetry middleware: request-id
// propagation, per-route counter + latency histogram, in-flight gauge,
// root span, and one access-log line per request.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	reqs := s.reg.Counter(fmt.Sprintf("ctfl_http_requests_total{route=%q}", pattern),
		"HTTP requests served, by route")
	errs := s.reg.Counter(fmt.Sprintf("ctfl_http_errors_total{route=%q}", pattern),
		"HTTP 5xx responses, by route")
	lat := s.reg.Histogram(fmt.Sprintf("ctfl_http_request_seconds{route=%q}", pattern),
		"HTTP request latency, by route", nil)
	// Each route is its own latency objective: the histogram already
	// bucketizes, so the objective just counts observations over the bound.
	s.slo.Add(telemetry.SLOConfig{
		Name:   "latency:" + pattern,
		Source: telemetry.HistogramSLOSource{H: lat, Bound: s.opts.SLOLatencyBound},
	})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = telemetry.NewRequestID()
		}
		ctx := telemetry.WithRequestID(r.Context(), id)
		ctx = telemetry.WithSpanLog(ctx, s.spans)
		ex := &reqExtras{}
		ctx = withReqExtras(ctx, ex)
		ctx, span := telemetry.StartSpan(ctx, "http "+pattern)
		span.SetAttr("method", r.Method)
		span.SetAttr("request_id", id)

		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		reqs.Inc()
		s.inFlight.Add(1)
		r = r.WithContext(ctx)
		// The cluster gate answers misdirected requests (wrong shard) and
		// fenced writes (follower) before the handler runs, so they have no
		// effect and still get full request accounting.
		if !s.clusterGate(sw, r, pattern) {
			h(sw, r)
		}
		s.inFlight.Add(-1)

		d := time.Since(t0)
		lat.Observe(d.Seconds())
		s.httpResponses.Inc()
		if sw.code >= 500 {
			errs.Inc()
			s.httpServerErrors.Inc()
		}

		// Every request becomes one wide flight event; the recorder decides
		// retention (tail-pins failures, rejections, faults, slow outliers).
		outcome := flight.OutcomeOK
		switch {
		case sw.code >= 500:
			outcome = flight.OutcomeError
		case sw.code >= 400:
			outcome = flight.OutcomeRejected
		}
		s.flightRec.Record(flight.Event{
			Kind:       flight.KindRequest,
			Outcome:    outcome,
			Status:     int32(sw.code),
			Route:      pattern,
			Method:     r.Method,
			RequestID:  id,
			DurationNs: d.Nanoseconds(),
			BytesIn:    max(r.ContentLength, 0),
			BytesOut:   sw.bytes,
			Faults:     ex.faults,
			CacheHit:   ex.cacheHit,
			Degraded:   s.degradedGauge.Value() != 0,
			Err:        sw.errDetail(),
		})

		span.SetAttr("status", sw.code)
		span.End()
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"route", pattern,
			"status", sw.code,
			"bytes", sw.bytes,
			"duration_ms", float64(d)/float64(time.Millisecond),
		)
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	// Staleness is a passive gauge: refresh it from the engine clock at
	// scrape time so Prometheus sees how long the scores have sat still.
	s.mu.RLock()
	eng := s.st.rounds
	s.mu.RUnlock()
	if eng != nil {
		s.roundsObs.Staleness.Set(eng.Staleness().Seconds())
	}
	// Process runtime gauges are likewise pull-refreshed at scrape time.
	s.runtime.Collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// TracesResponse is the shape of GET /v1/traces/recent.
type TracesResponse struct {
	// Total counts every root span ever recorded; Traces holds the most
	// recent ones (ring-buffer bounded), newest first.
	Total  int64                `json:"total"`
	Traces []telemetry.SpanView `json:"traces"`
}

// handleTracesRecent serves recent request trace trees, newest first.
// ?n= bounds the count (default 20).
func (s *Server) handleTracesRecent(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	n, err := queryInt(r, "n", 20)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{Total: s.spans.Total(), Traces: s.spans.Recent(n)})
}
