package main

import (
	"fmt"
	"sync"
	"time"
)

// route collects one request kind's client-observed latencies. In a traced
// run every other request is recorded as a span, so traced and untraced
// requests interleave under the same load.
type route struct {
	name      string
	lat       sample // untraced requests
	traced    sample // traced requests
	attempted int64
	failed    int64
	errs      []string
}

// call times one request and returns its latency. An error from fn — a
// transport error, a wrong status or a wrong answer — marks it failed.
func (r *route) call(log *spanLog, op int64, fn func() error) time.Duration {
	traced := log != nil && op%2 == 0
	sp := -1
	if traced {
		sp = log.start("http."+r.name, op, -1)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	log.end(sp)
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
		return d
	}
	if traced {
		r.traced.add(d)
	} else {
		r.lat.add(d)
	}
	return d
}

// all returns every successful request's latency, traced or not.
func (r *route) all() *sample {
	return &sample{ms: append(append([]float64(nil), r.lat.ms...), r.traced.ms...)}
}

func (o *outcome) addRoute(r *route) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, e := range r.errs {
		o.notef("%s failed: %s", r.name, e)
	}
}

// overheadPct compares traced against untraced request medians.
func overheadPct(r *route) float64 {
	if r.lat.p50() == 0 {
		return 0
	}
	return (r.traced.p50() - r.lat.p50()) / r.lat.p50() * 100
}

// runClients runs the closed-loop clients concurrently and returns the wall
// time until the last one finished.
func runClients(clients ...func()) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c()
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// deltas subtracts two /metrics scrapes.
func deltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// selfUS is a route's client-observed median minus the medians of the
// replayed layers beneath it, in microseconds.
func selfUS(routeMS float64, layersMS ...float64) float64 {
	s := routeMS
	for _, l := range layersMS {
		s -= l
	}
	return s * 1e3
}

// namedLatency reports a route's median and its tail at the highest
// percentile the sample supports, at most maxPct.
func (o *outcome) namedLatency(name string, s *sample, maxPct float64) {
	o.metric(name+"_p50_ms", s.p50(), "ms", fmt.Sprintf("n=%d", s.n()))
	if v, p, ok := s.tail(maxPct); ok {
		o.metric(fmt.Sprintf("%s_p%g_ms", name, p), v, "ms", fmt.Sprintf("n=%d", s.n()))
	}
}

// checkCount compares a /metrics count with the count the benchmark
// expects from what it sent.
func (o *outcome) checkCount(name string, got, want float64, what string) {
	o.check("metrics."+name, got == want, "%g, want %g (%s)", got, want, what)
}
