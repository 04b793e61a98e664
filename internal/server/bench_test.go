package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/protocol"
)

// benchServer publishes the fixture's encoder and model into a fresh Server
// (no persistence, no network — requests go straight through ServeHTTP).
func benchServer(b *testing.B, fx *federationFixture) *Server {
	b.Helper()
	s, err := NewWithOptions(Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	for _, req := range []struct {
		path, ct string
		body     []byte
	}{
		{"/v1/encoder", "application/json", fx.encoderJSON},
		{"/v1/model", "application/octet-stream", fx.modelBytes},
	} {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
		if w.Code != http.StatusNoContent {
			b.Fatalf("%s: status %d: %s", req.path, w.Code, w.Body)
		}
	}
	return s
}

// BenchmarkServerPredict measures /v1/predict end to end through ServeHTTP,
// binary wire format against the JSON fallback, one 32-row batch per op.
func BenchmarkServerPredict(b *testing.B) {
	fx := buildFederation(b)
	s := benchServer(b, fx)

	var enc dataset.Encoder
	if err := json.Unmarshal(fx.encoderJSON, &enc); err != nil {
		b.Fatal(err)
	}
	tab := dataset.TicTacToe()
	const batch = 32
	var rows32 []float32
	var rows64 [][]float64
	for i := 0; i < batch; i++ {
		x := enc.Encode(tab.Instances[i], nil)
		rows64 = append(rows64, x)
		for _, v := range x {
			rows32 = append(rows32, float32(v))
		}
	}
	frame, err := protocol.AppendPredictRequest(nil, enc.Width(), rows32)
	if err != nil {
		b.Fatal(err)
	}
	jsonBody, err := json.Marshal(map[string]any{"rows": rows64})
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, ct, accept string, body []byte) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		rd := bytes.NewReader(body)
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", rd)
			req.Header.Set("Content-Type", ct)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
		}
	}
	b.Run("codec=binary", func(b *testing.B) {
		run(b, protocol.ContentTypeFrame, protocol.ContentTypeFrame, frame)
	})
	b.Run("codec=json", func(b *testing.B) {
		run(b, "application/json", "", jsonBody)
	})
}

// BenchmarkServerUploadIngest measures /v1/uploads end to end: one op posts
// the full federation's activation frames. Reposting the model every 64 ops
// resets accumulated upload state without counting against the measurement.
func BenchmarkServerUploadIngest(b *testing.B) {
	fx := buildFederation(b)
	s := benchServer(b, fx)

	b.SetBytes(int64(len(fx.frames)))
	b.ReportAllocs()
	rd := bytes.NewReader(fx.frames)
	for i := 0; i < b.N; i++ {
		if i%64 == 0 && i > 0 {
			b.StopTimer()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/model", bytes.NewReader(fx.modelBytes)))
			if w.Code != http.StatusNoContent {
				b.Fatalf("model reset: status %d", w.Code)
			}
			b.StartTimer()
		}
		rd.Reset(fx.frames)
		req := httptest.NewRequest(http.MethodPost, "/v1/uploads", rd)
		req.Header.Set("Content-Type", protocol.ContentTypeFrame)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkServerTraceMiss measures a /v1/trace result-cache miss end to
// end through ServeHTTP: CSV parse, job submit, the trace job itself and
// the answer. The state (encoder, model and 16 copies of the federation's
// uploads) and every request are built before the timer starts. Each op
// asks for a tau the 128-job result cache cannot still hold, so every op
// traces; the tracing index is built by the first op and shared after.
func BenchmarkServerTraceMiss(b *testing.B) {
	fx := buildFederation(b)
	s := benchServer(b, fx)
	for i := 0; i < 16; i++ {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/uploads", bytes.NewReader(fx.frames)))
		if w.Code != http.StatusOK {
			b.Fatalf("uploads: status %d: %s", w.Code, w.Body)
		}
	}
	const distinct = 1024
	reqs := make([]*http.Request, distinct)
	for k := range reqs {
		tau := strconv.FormatFloat(0.5+0.5*float64(k+1)/distinct, 'g', -1, 64)
		reqs[k] = httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/trace?tau=%s&delta=2&wait=60s", tau), nil)
		reqs[k].Header.Set("Content-Type", "text/csv")
		reqs[k].ContentLength = int64(len(fx.testCSV))
	}
	rd := bytes.NewReader(fx.testCSV)
	body := io.NopCloser(rd)

	b.SetBytes(int64(len(fx.testCSV)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(fx.testCSV)
		req := reqs[i%distinct]
		req.Body = body
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
