package protocol

import (
	"encoding/json"
	"testing"

	"repro/internal/stats"
)

// benchTraceResult sizes the payload like a mid-sized federation: 100
// participants, a handful of suspects.
func benchTraceResult() *TraceResult {
	r := stats.NewRNG(7)
	tr := &TraceResult{Accuracy: 0.9, CoverageGap: 0.05}
	for i := 0; i < 100; i++ {
		tr.Micro = append(tr.Micro, r.Float64())
		tr.Macro = append(tr.Macro, r.Float64())
		tr.LossRatio = append(tr.LossRatio, r.Float64())
		tr.UselessRatio = append(tr.UselessRatio, r.Float64())
	}
	tr.Suspects = []int{3, 41, 77}
	return tr
}

func BenchmarkTraceResultEncode(b *testing.B) {
	tr := benchTraceResult()
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = AppendTraceResult(buf[:0], tr)
		}
	})
}

func BenchmarkTraceResultDecode(b *testing.B) {
	tr := benchTraceResult()
	jsonBytes, err := json.Marshal(tr)
	if err != nil {
		b.Fatal(err)
	}
	frame := AppendTraceResult(nil, tr)
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		var dst TraceResult
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(jsonBytes, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		var dst TraceResult
		for i := 0; i < b.N; i++ {
			f, _, err := ParseFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if err := ParseTraceResultInto(f, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchUploadFrame builds one 512-record, 256-rule upload frame — the shape
// of a real participant's activation batch.
func benchUploadFrame(b *testing.B) []byte {
	b.Helper()
	frame, err := randomUpload(stats.NewRNG(8), 0, 256, 512).Encode()
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkUploadIngest compares the ingest pipelines: the legacy path
// materializes an Upload (one bitset per record), re-encodes it for the WAL
// and converts to training records; the zero-copy path validates in place,
// persists the raw bytes (free) and, at index build, slab-decodes straight
// into training records.
func BenchmarkUploadIngest(b *testing.B) {
	frame := benchUploadFrame(b)
	b.Run("path=v1_decode_reencode", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			up, err := DecodeUpload(frame)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := up.Encode(); err != nil {
				b.Fatal(err)
			}
			if _, err := ToTrainingUploads([]*Upload{up}, 256, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("path=v2_zerocopy", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		frames := [][]byte{frame}
		for i := 0; i < b.N; i++ {
			info, err := ValidateUploadFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := DecodeTrainingRecords(frames, info.Records); err != nil {
				b.Fatal(err)
			}
		}
	})
}
