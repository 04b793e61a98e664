package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of per-operation latencies, kept as float64 milliseconds.
type sample struct {
	ms []float64
}

func (s *sample) add(d time.Duration) { s.ms = append(s.ms, float64(d.Nanoseconds())/1e6) }

func (s *sample) n() int { return len(s.ms) }

func (s *sample) sorted() []float64 {
	out := append([]float64(nil), s.ms...)
	sort.Float64s(out)
	return out
}

// p50 is the median in milliseconds (0 for an empty sample).
func (s *sample) p50() float64 { return median(s.ms) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, in tenths of a
// percent, highest first.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile of the ladder that has at least
// ten samples beyond it in a sample of n: a p99 needs 1000 samples, a p90
// needs 100. It reports false when even the median has fewer than ten
// samples beyond it.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// Samples beyond the nearest-rank percentile p: n - ceil(p*n).
		if n-ceilDiv(p*n, 1000) >= minBeyond {
			return float64(p) / 10, true
		}
	}
	return 0, false
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// percentile returns the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// tail returns the sample's value at tailPercentile, capped at maxPct, and
// the percentile used. The cap keeps a gated tail at the percentile its
// metric is named for when a run holds more samples than that needs.
func (s *sample) tail(maxPct float64) (value, pct float64, ok bool) {
	pct, ok = tailPercentile(s.n())
	if !ok {
		return 0, 0, false
	}
	pct = math.Min(pct, maxPct)
	return percentile(s.sorted(), pct), pct, true
}
