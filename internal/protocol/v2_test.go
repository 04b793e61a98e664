package protocol

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/stats"
)

func mustPredictRequest(t *testing.T, width int, rows []float32) []byte {
	t.Helper()
	b, err := AppendPredictRequest(nil, width, rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPredictRequestRoundTrip(t *testing.T) {
	rows := []float32{1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1}
	buf := mustPredictRequest(t, 4, rows)

	f, rest, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if f.Version != Version2 || f.Type != TypePredictRequest {
		t.Fatalf("frame version %d type %d", f.Version, f.Type)
	}
	req, err := ParsePredictRequest(f)
	if err != nil {
		t.Fatal(err)
	}
	if req.Width != 4 || req.Count != 3 {
		t.Fatalf("parsed %d×%d", req.Count, req.Width)
	}
	got := req.AppendRows(nil)
	if len(got) != len(rows) {
		t.Fatalf("got %d values", len(got))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("value %d: %g != %g", i, got[i], rows[i])
		}
	}

	if _, err := AppendPredictRequest(nil, 5, rows); err == nil {
		t.Fatal("non-multiple row length accepted")
	}
	if _, err := AppendPredictRequest(nil, 0, nil); err == nil {
		t.Fatal("zero width accepted")
	}
}

func TestPredictResponseRoundTrip(t *testing.T) {
	scores := []float64{-1.5, 0, 2.25, math.Inf(1), math.SmallestNonzeroFloat64}
	buf := AppendPredictResponse(nil, scores)
	f, _, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParsePredictResponse(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scores) {
		t.Fatalf("got %d scores", len(got))
	}
	for i := range scores {
		if got[i] != scores[i] {
			t.Fatalf("score %d: %v != %v", i, got[i], scores[i])
		}
	}
	// Appending into a reused slice keeps prior content.
	again, err := ParsePredictResponse(f, got[:0])
	if err != nil || len(again) != len(scores) {
		t.Fatalf("reuse decode: %v, %d scores", err, len(again))
	}
}

func sampleTraceResult() *TraceResult {
	return &TraceResult{
		Accuracy:     0.875,
		CoverageGap:  0.0625,
		Micro:        []float64{0.5, 0.25, 0.0625},
		Macro:        []float64{0.4, 0.35, 0.125},
		LossRatio:    []float64{0, 0.5, 1},
		UselessRatio: []float64{0.125, 0, 0.875},
		Suspects:     []int{2},
	}
}

func traceResultsEqual(a, b *TraceResult) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if a.Accuracy != b.Accuracy || a.CoverageGap != b.CoverageGap ||
		!eq(a.Micro, b.Micro) || !eq(a.Macro, b.Macro) ||
		!eq(a.LossRatio, b.LossRatio) || !eq(a.UselessRatio, b.UselessRatio) ||
		len(a.Suspects) != len(b.Suspects) {
		return false
	}
	for i := range a.Suspects {
		if a.Suspects[i] != b.Suspects[i] {
			return false
		}
	}
	return true
}

func TestTraceResultRoundTrip(t *testing.T) {
	tr := sampleTraceResult()
	buf := AppendTraceResult(nil, tr)
	f, rest, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	got, err := ParseTraceResult(f)
	if err != nil {
		t.Fatal(err)
	}
	if !traceResultsEqual(tr, got) {
		t.Fatalf("round trip changed content: %+v vs %+v", tr, got)
	}

	// Empty vectors (a federation with zero suspects, say) survive too.
	empty := &TraceResult{Micro: []float64{}, Macro: []float64{}}
	f2, _, err := ParseFrame(AppendTraceResult(nil, empty))
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ParseTraceResult(f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Micro) != 0 || len(got2.Suspects) != 0 {
		t.Fatalf("empty round trip: %+v", got2)
	}
}

func TestParseTraceResultIntoReusesCapacity(t *testing.T) {
	tr := sampleTraceResult()
	buf := AppendTraceResult(nil, tr)
	f, _, err := ParseFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	var dst TraceResult
	if err := ParseTraceResultInto(f, &dst); err != nil {
		t.Fatal(err)
	}
	// Warm: a second decode into the same struct must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		if err := ParseTraceResultInto(f, &dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state trace-result decode allocates %v times per run", allocs)
	}
	if !traceResultsEqual(tr, &dst) {
		t.Fatal("reused decode changed content")
	}
}

func TestParseFrameErrors(t *testing.T) {
	valid := AppendPredictResponse(nil, []float64{1, 2})
	cases := map[string][]byte{
		"empty":          {},
		"short":          valid[:8],
		"bad magic":      append([]byte("XXXX"), valid[4:]...),
		"truncated body": valid[:len(valid)-6],
	}
	for name, b := range cases {
		if _, _, err := ParseFrame(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Flip one payload byte: CRC must catch it.
	corrupt := append([]byte(nil), valid...)
	corrupt[frameHeaderLen] ^= 0x40
	if _, _, err := ParseFrame(corrupt); err == nil {
		t.Error("corrupted payload accepted")
	}

	// Inflated length field must error, not panic or over-read.
	huge := append([]byte(nil), valid...)
	huge[8] = 0xFF
	if _, _, err := ParseFrame(huge); err == nil {
		t.Error("inflated length accepted")
	}

	// Wrong-type frames are rejected by each typed parser.
	f, _, err := ParseFrame(valid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePredictRequest(f); err == nil {
		t.Error("predict response parsed as request")
	}
	if _, err := ParseTraceResult(f); err == nil {
		t.Error("predict response parsed as trace result")
	}
}

// randomUpload builds a width-w upload with n random records.
func randomUpload(r interface{ Intn(int) int }, part, w, n int) *Upload {
	u := &Upload{Participant: part, RuleWidth: w}
	for i := 0; i < n; i++ {
		s := bitset.New(w)
		for b := 0; b < w; b++ {
			if r.Intn(2) == 1 {
				s.Set(b)
			}
		}
		u.Records = append(u.Records, Record{Label: r.Intn(2), Activations: s})
	}
	return u
}

// TestValidateUploadFrameMatchesDecode pins the zero-copy validator to the
// materializing decoder: on any byte string, both accept or both reject, and
// on acceptance the structural summary matches.
func TestValidateUploadFrameMatchesDecode(t *testing.T) {
	r := stats.NewRNG(11)
	var inputs [][]byte
	for _, w := range []int{0, 1, 7, 8, 63, 64, 65, 130} {
		enc, err := randomUpload(r, r.Intn(5), w, r.Intn(6)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, enc)
	}
	base, err := randomUpload(r, 1, 33, 4).Encode()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, base)
	// Single-byte mutations of a valid frame exercise every rejection path.
	for i := 0; i < len(base); i++ {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x81
		inputs = append(inputs, mut)
	}
	for i := range inputs {
		inputs = append(inputs, inputs[i][:len(inputs[i])/2])
	}

	for _, in := range inputs {
		up, derr := DecodeUpload(in)
		info, verr := ValidateUploadFrame(in)
		if verr == nil && len(in) != info.FrameLen {
			verr = errTrailing
		}
		if (derr == nil) != (verr == nil) {
			t.Fatalf("decode err %v, validate err %v on %d-byte input", derr, verr, len(in))
		}
		if derr != nil {
			continue
		}
		if info.Participant != up.Participant || info.RuleWidth != up.RuleWidth || info.Records != len(up.Records) {
			t.Fatalf("validate %+v vs decode %d/%d/%d", info, up.Participant, up.RuleWidth, len(up.Records))
		}
	}
}

var errTrailing = bytes.ErrTooLarge // any non-nil sentinel for the differential check

// legacyTrainingRecords is the reference decode of a generation: each frame
// through DecodeUpload, then ToTrainingUploads over all of them.
func legacyTrainingRecords(frames [][]byte, width int) ([]core.TrainingUpload, error) {
	ups := make([]*Upload, len(frames))
	parts := 0
	for i, f := range frames {
		var err error
		if ups[i], err = DecodeUpload(f); err != nil {
			return nil, err
		}
		parts = max(parts, ups[i].Participant+1)
	}
	return ToTrainingUploads(ups, width, parts)
}

// sameTrainingRecords reports the first record where got and want differ.
func sameTrainingRecords(got, want []core.TrainingUpload) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Owner != want[i].Owner || got[i].Label != want[i].Label {
			return fmt.Errorf("record %d: owner/label %d/%d, want %d/%d",
				i, got[i].Owner, got[i].Label, want[i].Owner, want[i].Label)
		}
		if !got[i].Activations.Equal(want[i].Activations) {
			return fmt.Errorf("record %d activations differ", i)
		}
	}
	return nil
}

// TestDecodeTrainingRecordsMatchesToTrainingUploads pins the generation
// decode to the legacy decode→convert path record by record, over frames
// from several participants, and checks its three rejections.
func TestDecodeTrainingRecordsMatchesToTrainingUploads(t *testing.T) {
	r := stats.NewRNG(12)
	var frames [][]byte
	records := 0
	for _, pn := range [][2]int{{2, 9}, {0, 1}, {4, 0}, {1, 17}, {2, 3}} {
		frame, err := randomUpload(r, pn[0], 97, pn[1]).Encode()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		records += pn[1]
	}
	want, err := legacyTrainingRecords(frames, 97)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrainingRecords(frames, records)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTrainingRecords(got, want); err != nil {
		t.Fatal(err)
	}
	// The single-frame form decodes the same records.
	one, info, err := AppendTrainingRecords(nil, frames[3])
	if err != nil {
		t.Fatal(err)
	}
	if info.Participant != 1 || info.Records != 17 || info.FrameLen != len(frames[3]) {
		t.Fatalf("info = %+v", info)
	}
	if err := sameTrainingRecords(one, want[10:27]); err != nil {
		t.Fatal(err)
	}

	narrow, err := randomUpload(r, 3, 96, 2).Encode()
	if err != nil {
		t.Fatal(err)
	}
	trailing := append(append([]byte(nil), frames[1]...), 0)
	for name, c := range map[string]struct {
		frames  [][]byte
		records int
	}{
		"width mismatch": {append(frames[:2:2], narrow), 12},
		"too few":        {frames, records - 1},
		"too many":       {frames, records + 1},
		"trailing bytes": {[][]byte{frames[0], trailing}, 10},
	} {
		if got, err := DecodeTrainingRecords(c.frames, c.records); err == nil || got != nil {
			t.Errorf("%s: accepted (%d records, err %v)", name, len(got), err)
		}
	}
	if _, _, err := AppendTrainingRecords(nil, trailing); err == nil {
		t.Error("single-frame decode accepted a trailing byte")
	}
}

// TestValidateUploadFrameZeroAlloc pins the ingest hot path: validating a
// frame in place must not touch the heap at all.
func TestValidateUploadFrameZeroAlloc(t *testing.T) {
	frame, err := randomUpload(stats.NewRNG(13), 0, 256, 64).Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ValidateUploadFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidateUploadFrame allocates %v times per frame", allocs)
	}
}
