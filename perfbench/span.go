package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the index of the span that caused this one,
// or -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory for the whole run; they are written out
// once the run ends, so recording costs two clock reads and an append.
// A nil *spanLog records nothing.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// start opens a span and returns its index, or -1 on a nil log.
func (l *spanLog) start(name string, op int64, parent int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(l.spans) - 1
}

// end closes the span start returned.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// record adds an already-timed span and returns its index.
func (l *spanLog) record(name string, op int64, parent int, t0 time.Time, d time.Duration) int {
	if l == nil {
		return -1
	}
	s := t0.Sub(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	return len(l.spans) - 1
}

// snapshot copies the recorded spans.
func (l *spanLog) snapshot() []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeJSONL writes one span per line to path.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (parallel calls) or stick out of the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName groups self times by span name, in milliseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i].Nanoseconds())/1e6)
	}
	return out
}
