package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/flight"
	"repro/internal/protocol"
	"repro/internal/store"
)

// TestSLOBurnTripsAndClearsDegraded drives the SLO path into and out of
// degraded mode without ever reaching the consecutive-failure threshold:
// wal_availability burn trips the controller, burn decay clears it.
func TestSLOBurnTripsAndClearsDegraded(t *testing.T) {
	fx := buildFederation(t)
	in := faults.New(77, map[string]faults.Site{
		store.FaultAppend: {ErrProb: 1, MaxFaults: 2},
	})
	s, err := NewWithOptions(Options{
		DataDir: t.TempDir(),
		Logger:  testLogger(t),
		Faults:  in,
		// The blunt threshold is far away and probes are effectively off:
		// only the SLO engine can change the controller's mind here.
		DegradedThreshold: 1000,
		ProbeInterval:     time.Hour,
		SLOInterval:       -1, // no background ticker; ticks are synchronous
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Failure 1 seeds the objective's differencing baseline: a single
	// cumulative sample can't show a burn, so the server must NOT degrade.
	resp := post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failure 1 status = %d, want 503", resp.StatusCode)
	}
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("degraded after one WAL failure; burn needs two samples")
	}

	// Failure 2: the delta is 100% bad → burn far beyond both thresholds →
	// the SLO trips degraded mode (threshold 1000 never fired).
	resp = post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failure 2 status = %d, want 503", resp.StatusCode)
	}
	if deg, _ := healthState(t, ts)["degraded"].(bool); !deg {
		t.Fatal("not degraded after wal_availability burn")
	}
	snap := s.reg.Snapshot()
	if v, _ := snap["ctfl_server_degraded_slo_trips_total"].(int64); v != 1 {
		t.Fatalf("degraded_slo_trips_total = %v, want 1", snap["ctfl_server_degraded_slo_trips_total"])
	}
	if v, _ := snap["ctfl_server_degraded_entered_total"].(int64); v != 1 {
		t.Fatalf("degraded_entered_total = %v, want 1", snap["ctfl_server_degraded_entered_total"])
	}
	if v, _ := snap[`ctfl_slo_breaches_total{slo="wal_availability"}`].(int64); v != 1 {
		t.Fatalf("slo breaches = %v, want 1", snap[`ctfl_slo_breaches_total{slo="wal_availability"}`])
	}

	// The incident is on the flight recorder's pinned tail: WAL append
	// failures and the degraded transition itself.
	var sawAppend, sawEntered bool
	for _, ev := range s.flightRec.Snapshot(flight.Filter{Kind: flight.KindWAL}) {
		switch {
		case ev.Outcome == flight.OutcomeError && ev.Route == "store.append":
			sawAppend = true
		case ev.Outcome == flight.OutcomeDegraded && ev.Route == "server.degraded":
			sawEntered = true
		}
	}
	if !sawAppend || !sawEntered {
		t.Fatalf("flight tail missing WAL incident evidence: append=%v entered=%v", sawAppend, sawEntered)
	}

	// An hour later with no further WAL traffic the burn is zero in both
	// windows; the SLO clear transition lifts degradation — no probe ran.
	s.mu.Lock()
	s.sloTickLocked(time.Now().Add(time.Hour))
	s.mu.Unlock()
	if deg, _ := healthState(t, ts)["degraded"].(bool); deg {
		t.Fatal("still degraded after the burn decayed")
	}
	if v, _ := s.reg.Snapshot()["ctfl_server_degraded"].(float64); v != 0 {
		t.Fatalf("degraded gauge = %v, want 0", v)
	}

	// Fault budget exhausted: the write path works again.
	resp = post(t, ts, "/v1/encoder", "application/json", fx.encoderJSON)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("post-recovery status = %d, want 204", resp.StatusCode)
	}
}

func getEvents(t *testing.T, ts *httptest.Server, query string) EventsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/events%s status = %d", query, resp.StatusCode)
	}
	var er EventsResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

// TestEventsEndpoint exercises the JSON surface: every request becomes an
// event, failures are pinned, and the query filters narrow the snapshot.
func TestEventsEndpoint(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// One OK request and one rejected (409: no model yet).
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/rules"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	er := getEvents(t, ts, "")
	if er.Stats.Recorded < 2 || len(er.Events) < 2 {
		t.Fatalf("recorded %d retained %d events, want >= 2", er.Stats.Recorded, len(er.Events))
	}
	var ok, rejected *EventJSON
	for i := range er.Events {
		ev := &er.Events[i]
		switch {
		case ev.Route == "/healthz" && ev.Outcome == "ok":
			ok = ev
		case ev.Route == "/v1/rules" && ev.Outcome == "rejected":
			rejected = ev
		}
	}
	if ok == nil || rejected == nil {
		t.Fatalf("missing events: healthz=%v rules=%v in %+v", ok != nil, rejected != nil, er.Events)
	}
	if rejected.Status != http.StatusConflict || rejected.Err == "" {
		t.Fatalf("rejected event lacks status/err detail: %+v", rejected)
	}
	if ok.RequestID == "" || ok.Method != http.MethodGet || ok.DurationNs <= 0 {
		t.Fatalf("ok event underfilled: %+v", ok)
	}

	// Outcome filter: only the rejection.
	er = getEvents(t, ts, "?outcome=rejected")
	for _, ev := range er.Events {
		if ev.Outcome != "rejected" {
			t.Fatalf("outcome filter leaked %+v", ev)
		}
	}
	if len(er.Events) == 0 {
		t.Fatal("outcome=rejected returned nothing")
	}
	// Since filter: strictly after the rejection's sequence → nothing older.
	er = getEvents(t, ts, "?since="+jsonNum(rejected.Seq))
	for _, ev := range er.Events {
		if ev.Seq <= rejected.Seq {
			t.Fatalf("since filter returned seq %d <= %d", ev.Seq, rejected.Seq)
		}
	}

	// Malformed filters are 400s, not silent full snapshots.
	for _, q := range []string{"?since=x", "?min_latency=fast", "?outcome=meh", "?kind=meh", "?n=-1"} {
		resp, err := http.Get(ts.URL + "/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/events%s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestEventsBinaryRoundTrip pins the wire contract: the binary response is
// one type-7 frame whose decode → re-encode is bit-identical.
func TestEventsBinaryRoundTrip(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	for range 3 {
		resp, err := http.Get(ts.URL + "/v1/rules") // 409s → pinned events
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/events", nil)
	req.Header.Set("Accept", protocol.ContentTypeFrame)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != protocol.ContentTypeFrame {
		t.Fatalf("Content-Type = %q, want %q", ct, protocol.ContentTypeFrame)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	f, rest, err := protocol.ParseFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after events frame", len(rest))
	}
	evs, err := protocol.ParseFlightEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("binary snapshot is empty")
	}
	again, err := protocol.AppendFlightEvents(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, again) {
		t.Fatal("events frame decode → re-encode is not bit-identical")
	}
}

// TestDebugBundle captures the one-shot bundle and proves the embedded
// events survive a JSON → codec → JSON round trip bit-identically.
func TestDebugBundle(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/v1/rules"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle status = %d", resp.StatusCode)
	}
	var b DebugBundle
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.CapturedAtUnix == 0 || b.Version.GoVersion == "" || b.UptimeSeconds < 0 {
		t.Fatalf("bundle identity underfilled: %+v", b.Version)
	}
	if len(b.SLO) == 0 {
		t.Fatal("bundle has no SLO status")
	}
	if len(b.Events) == 0 || b.FlightStats.Recorded == 0 {
		t.Fatal("bundle has no flight events")
	}
	if _, ok := b.Telemetry["ctfl_process_goroutines"]; !ok {
		t.Fatal("bundle telemetry missing process runtime gauges")
	}

	// Bit-identical codec round trip of the captured events.
	evs := make([]flight.Event, len(b.Events))
	for i, ej := range b.Events {
		ev, err := ej.event()
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = ev
	}
	frame, err := protocol.AppendFlightEvents(nil, evs)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := protocol.ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := protocol.ParseFlightEvents(f)
	if err != nil {
		t.Fatal(err)
	}
	again, err := protocol.AppendFlightEvents(nil, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, again) {
		t.Fatal("bundle events do not round-trip bit-identically through the type-7 codec")
	}
}

// TestVersionEndpoint sanity-checks the build-identity surface.
func TestVersionEndpoint(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" {
		t.Fatalf("version info missing go_version: %+v", v)
	}
}

// TestStatsCarriesObservability pins the /v1/stats additions: SLO status,
// flight accounting, and refreshed process gauges.
func TestStatsCarriesObservability(t *testing.T) {
	s := New()
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.SLO) == 0 {
		t.Fatal("stats has no SLO objectives")
	}
	names := map[string]bool{}
	for _, o := range sr.SLO {
		names[o.Name] = true
	}
	for _, want := range []string{"availability", "wal_availability", "score_staleness", "rounds_ingest_lag"} {
		if !names[want] {
			t.Fatalf("stats SLO missing objective %q (have %v)", want, names)
		}
	}
	if sr.Flight.Recorded == 0 {
		t.Fatal("stats flight accounting empty after a served request")
	}
	g, ok := sr.Telemetry["ctfl_process_goroutines"].(float64)
	if !ok || g <= 0 {
		t.Fatalf("process goroutine gauge not refreshed: %v", sr.Telemetry["ctfl_process_goroutines"])
	}
}

// TestTraceCacheHitAnnotatesFlight submits the same trace twice: the
// second, cache-served request's flight event carries the cache_hit mark,
// and the finished job itself appears as a KindJob event.
func TestTraceCacheHitAnnotatesFlight(t *testing.T) {
	fx := buildFederation(t)
	s, err := NewWithOptions(Options{Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer closeServer(t, s)
	ts := httptest.NewServer(s)
	defer ts.Close()
	publishAll(t, ts, fx)

	for i := range 2 {
		resp := post(t, ts, "/v1/trace?tau=0.9&wait=60s", "text/csv", fx.testCSV)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace %d status = %d: %s", i, resp.StatusCode, body)
		}
	}

	var sawCacheHit, sawJob bool
	for _, ev := range s.flightRec.Snapshot(flight.Filter{}) {
		if ev.Kind == flight.KindRequest && ev.Route == "/v1/trace" && ev.CacheHit {
			sawCacheHit = true
		}
		if ev.Kind == flight.KindJob && ev.Route == "job.trace" && ev.Outcome == flight.OutcomeOK {
			sawJob = true
		}
	}
	if !sawCacheHit {
		t.Fatal("no cache-hit-annotated /v1/trace request event")
	}
	if !sawJob {
		t.Fatal("no KindJob event for the completed trace job")
	}
}
