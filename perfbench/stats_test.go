package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has 9 samples beyond it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 of 99 has only 9 beyond it
		{100, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

// Every percentile the rule picks has at least ten samples beyond it.
func TestTailLeavesTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		p, ok := tailPercentile(n)
		if !ok {
			continue
		}
		s := &sample{}
		for i := 0; i < n; i++ {
			s.add(time.Duration(i) * time.Millisecond)
		}
		v := percentile(s.sorted(), p)
		beyond := 0
		for _, x := range s.ms {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p, beyond)
		}
	}
}

func TestTailCap(t *testing.T) {
	s := &sample{}
	for i := 1; i <= 20000; i++ {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if _, p, _ := s.tail(100); p != 99.9 {
		t.Errorf("uncapped tail of 20000 at p%g, want p99.9", p)
	}
	v, p, ok := s.tail(99)
	if !ok || p != 99 || v != 19.8 {
		t.Errorf("tail capped at 99 = %v at p%g (%v), want 19.8 at p99", v, p, ok)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(p%g) = %v, want %v", c.p, got, c.want)
		}
	}
}
