package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		// Two overlapping children cover [10, 50]; a third sticks out of
		// the parent and covers only [90, 100] of it.
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(20), End: ms(50)},
		{Name: "c", Parent: 0, Start: ms(90), End: ms(120)},
		// A grandchild is subtracted from its parent only.
		{Name: "a.x", Parent: 1, Start: ms(12), End: ms(18)},
		// A second root with no children keeps its whole duration.
		{Name: "other", Parent: -1, Start: ms(0), End: ms(7)},
	}
	want := []time.Duration{50, 14, 30, 30, 6, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i]*time.Millisecond)
		}
	}
	by := selfByName(spans)
	if len(by["root"]) != 1 || by["root"][0] != 50 {
		t.Errorf("selfByName root = %v, want [50]", by["root"])
	}
}

// A parent's self time and its children's self times add up to the
// parent's duration when the children stay inside it and do not overlap.
func TestSelfTimesAddUp(t *testing.T) {
	l := newSpanLog()
	root := l.start("op", 1, -1)
	for _, name := range []string{"train", "extract", "build"} {
		sp := l.start(name, 1, root)
		time.Sleep(2 * time.Millisecond)
		l.end(sp)
	}
	l.end(root)
	spans := l.snapshot()
	self := selfTimes(spans)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != spans[root].dur() {
		t.Errorf("self times sum to %v, root lasted %v", sum, spans[root].dur())
	}
}

// A route's self time is its client-observed median less the layers
// replayed beneath it.
func TestSelfUS(t *testing.T) {
	if got := selfUS(1.5, 0.25, 0.5); got != 750 {
		t.Errorf("selfUS(1.5 ms - 0.25 - 0.5) = %v us, want 750", got)
	}
}

func TestNilSpanLogRecordsNothing(t *testing.T) {
	var l *spanLog
	if id := l.start("x", 1, -1); id != -1 {
		t.Errorf("nil log start = %d", id)
	}
	l.end(-1)
	l.record("x", 1, -1, time.Now(), time.Millisecond)
	if s := l.snapshot(); s != nil {
		t.Errorf("nil log snapshot = %v", s)
	}
}

func TestWriteJSONL(t *testing.T) {
	l := newSpanLog()
	root := l.start("op", 7, -1)
	l.end(l.start("child", 7, root))
	l.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := l.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != 0 || got[1].Op != 7 || got[0].End < got[0].Start {
		t.Errorf("read back %+v", got)
	}
}
