package protocol

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/stats"
)

// seedFrame adds the canonical mutation set for one valid frame: the frame
// itself, a truncation, and an inflated length field (byte 8 is the second
// byte of bodyLen, so ^0xFF turns any sane length into a huge one).
func seedFrame(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	huge := append([]byte(nil), valid...)
	huge[8] ^= 0xFF
	f.Add(huge)
}

// FuzzParseFrame: the envelope parser must never panic and must only accept
// CRC-clean input whose re-framed bytes parse identically.
func FuzzParseFrame(f *testing.F) {
	seedFrame(f, AppendFrame(nil, Version2, TypePredictResponse, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}))
	f.Add([]byte{})
	f.Add([]byte("CTFL"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := ParseFrame(data)
		if err != nil {
			return
		}
		if len(fr.Body)+len(rest) > len(data) {
			t.Fatalf("frame views exceed input: body %d rest %d input %d", len(fr.Body), len(rest), len(data))
		}
		again, _, err := ParseFrame(AppendFrame(nil, fr.Version, fr.Type, fr.Body))
		if err != nil {
			t.Fatalf("re-framed frame rejected: %v", err)
		}
		if again.Version != fr.Version || again.Type != fr.Type || string(again.Body) != string(fr.Body) {
			t.Fatal("round trip changed frame")
		}
	})
}

// FuzzPredictRequest: any accepted predict request must be structurally
// consistent and re-encode to an equal frame.
func FuzzPredictRequest(f *testing.F) {
	valid, err := AppendPredictRequest(nil, 3, []float32{1, 0, 1, 0, 1, 0})
	if err != nil {
		f.Fatal(err)
	}
	seedFrame(f, valid)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := ParseFrame(data)
		if err != nil {
			return
		}
		req, err := ParsePredictRequest(fr)
		if err != nil {
			return
		}
		rows := req.AppendRows(nil)
		if len(rows) != req.Width*req.Count {
			t.Fatalf("%d values for %d×%d request", len(rows), req.Count, req.Width)
		}
		enc, err := AppendPredictRequest(nil, req.Width, rows)
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		fr2, _, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		req2, err := ParsePredictRequest(fr2)
		if err != nil || req2.Width != req.Width || req2.Count != req.Count {
			t.Fatalf("round trip changed request: %v %+v", err, req2)
		}
	})
}

// FuzzTraceResult: any accepted trace result must survive an encode/decode
// round trip bit-for-bit.
func FuzzTraceResult(f *testing.F) {
	seedFrame(f, AppendTraceResult(nil, &TraceResult{
		Accuracy:     0.75,
		CoverageGap:  0.25,
		Micro:        []float64{0.5, 0.25},
		Macro:        []float64{0.4, 0.35},
		LossRatio:    []float64{0, 1},
		UselessRatio: []float64{1, 0},
		Suspects:     []int{1},
	}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := ParseFrame(data)
		if err != nil {
			return
		}
		tr, err := ParseTraceResult(fr)
		if err != nil {
			return
		}
		fr2, _, err := ParseFrame(AppendTraceResult(nil, tr))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		tr2, err := ParseTraceResult(fr2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		// Bit-level equality: hostile inputs can carry NaN payloads, which
		// != would reject even on a perfect round trip.
		if !traceResultsBitEqual(tr, tr2) {
			t.Fatal("round trip changed trace result")
		}
	})
}

// FuzzRoundUpdate: the zero-alloc validator and the zero-copy view must
// agree on every input, and any accepted round update must re-encode to a
// frame that parses back bit-identically (NaN params included).
func FuzzRoundUpdate(f *testing.F) {
	valid, err := AppendRoundUpdate(nil, 2, []RoundParticipant{
		{ID: 0, Weight: 3, Params: []float64{0.5, math.NaN()}},
		{ID: 4, Weight: 1, Params: []float64{-1, math.Inf(1)}},
	})
	if err != nil {
		f.Fatal(err)
	}
	seedFrame(f, valid)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		info, verr := ValidateRoundUpdateFrame(data)
		fr, _, perr := ParseFrame(data)
		var u RoundUpdate
		uerr := perr
		if perr == nil {
			u, uerr = ParseRoundUpdate(fr)
		}
		if (verr == nil) != (uerr == nil) {
			t.Fatalf("validator err %v, view err %v on %d-byte input", verr, uerr, len(data))
		}
		if verr != nil {
			return
		}
		if info.Round != u.Round || info.Count != u.Count || info.ParamCount != u.ParamCount {
			t.Fatalf("validator %+v vs view %+v", info, u)
		}
		parts := make([]RoundParticipant, u.Count)
		for i := range parts {
			parts[i] = u.Participant(i)
		}
		enc, err := AppendRoundUpdate(nil, u.Round, parts)
		if err != nil {
			t.Fatalf("re-encode of accepted update rejected: %v", err)
		}
		fr2, _, err := ParseFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		u2, err := ParseRoundUpdate(fr2)
		if err != nil || u2.Round != u.Round || u2.Count != u.Count || u2.ParamCount != u.ParamCount {
			t.Fatalf("round trip changed update: %v %+v", err, u2)
		}
		for i := 0; i < u.Count; i++ {
			if u2.ID(i) != u.ID(i) || math.Float64bits(u2.Weight(i)) != math.Float64bits(u.Weight(i)) {
				t.Fatalf("participant %d changed", i)
			}
			for j := 0; j < u.ParamCount; j++ {
				if math.Float64bits(u2.Param(i, j)) != math.Float64bits(u.Param(i, j)) {
					t.Fatalf("param [%d][%d] bits changed", i, j)
				}
			}
		}
	})
}

// FuzzScoresSnapshot: any accepted snapshot must survive an encode/decode
// round trip bit-for-bit (hostile inputs can carry NaN scores).
func FuzzScoresSnapshot(f *testing.F) {
	seedFrame(f, AppendScoresSnapshot(nil, &ScoresSnapshot{
		Rounds:  5,
		Skipped: 2,
		Scores:  []float64{0.25, math.NaN(), -1},
	}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := ParseFrame(data)
		if err != nil {
			return
		}
		s, err := ParseScoresSnapshot(fr)
		if err != nil {
			return
		}
		fr2, _, err := ParseFrame(AppendScoresSnapshot(nil, s))
		if err != nil {
			t.Fatalf("re-encode rejected: %v", err)
		}
		s2, err := ParseScoresSnapshot(fr2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.Rounds != s.Rounds || s2.Skipped != s.Skipped || len(s2.Scores) != len(s.Scores) {
			t.Fatalf("round trip changed snapshot: %+v vs %+v", s, s2)
		}
		for i := range s.Scores {
			if math.Float64bits(s2.Scores[i]) != math.Float64bits(s.Scores[i]) {
				t.Fatalf("score %d bits changed", i)
			}
		}
	})
}

func traceResultsBitEqual(a, b *TraceResult) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) ||
		math.Float64bits(a.CoverageGap) != math.Float64bits(b.CoverageGap) ||
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

// FuzzDecodeTrainingRecords: arbitrary bytes, cut into frames at the
// uint16 lengths in cuts (the remainder is the last frame), never panic the
// generation decoder. It accepts exactly when every frame passes
// ValidateUploadFrame with no trailing bytes, all frames share one rule
// width, and records is the header sum (skew shifts it off); what it
// accepts equals the per-frame legacy decode record by record.
func FuzzDecodeTrainingRecords(f *testing.F) {
	r := stats.NewRNG(21)
	var data, cuts []byte
	for _, pn := range [][2]int{{1, 3}, {0, 0}, {3, 5}} {
		frame, err := randomUpload(r, pn[0], 70, pn[1]).Encode()
		if err != nil {
			f.Fatal(err)
		}
		data = append(data, frame...)
		cuts = binary.LittleEndian.AppendUint16(cuts, uint16(len(frame)))
	}
	f.Add(data, cuts, int8(0))
	f.Add(data, cuts, int8(-1))
	f.Add(data, cuts[:2], int8(0))
	f.Add(data, cuts[:4], int8(0))
	f.Add(data[:len(data)-1], cuts, int8(0))
	other, err := randomUpload(r, 2, 69, 1).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(nil), data...), other...), cuts, int8(0))
	f.Add([]byte{}, []byte{}, int8(0))

	f.Fuzz(func(t *testing.T, data, cuts []byte, skew int8) {
		var frames [][]byte
		for ; len(cuts) >= 2 && len(data) > 0; cuts = cuts[2:] {
			n := min(int(binary.LittleEndian.Uint16(cuts)), len(data))
			frames, data = append(frames, data[:n:n]), data[n:]
		}
		if len(data) > 0 {
			frames = append(frames, data)
		}
		ok, width, sum := true, 0, 0
		for i, fr := range frames {
			info, err := ValidateUploadFrame(fr)
			if err != nil || info.FrameLen != len(fr) || (i > 0 && info.RuleWidth != width) {
				ok = false
				continue
			}
			width, sum = info.RuleWidth, sum+info.Records
		}
		ok = ok && skew == 0
		got, err := DecodeTrainingRecords(frames, sum+int(skew))
		if (err == nil) != ok {
			t.Fatalf("decode err %v, want accept=%v over %d frames", err, ok, len(frames))
		}
		if err != nil {
			if got != nil {
				t.Fatalf("rejected decode returned %d records", len(got))
			}
			return
		}
		want, err := legacyTrainingRecords(frames, width)
		if err != nil {
			t.Fatalf("legacy decode rejects what the generation decode accepts: %v", err)
		}
		if err := sameTrainingRecords(got, want); err != nil {
			t.Fatal(err)
		}
	})
}
