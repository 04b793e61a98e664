package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/protocol"
	"repro/internal/telemetry"
)

// service-query: the read path. Set-up preloads 64k upload records (so a
// trace miss costs tens of milliseconds, nearly all of it in the tracer)
// and a short round stream; no write arrives during the run. Client 1
// alternates binary POST /v1/predict (32 rows) and GET /v1/scores in a
// fixed 3:1 ratio; client 2 sends POST /v1/trace?wait= on distinct test
// subsets, and every fourth trace repeats a recent subset so the job cache
// hits. Both are closed loops with fixed operation counts. The tracer, the
// job engine, inference and the per-request middleware do the work; the WAL
// does none. A run serves its federations one after another, each on a
// fresh node.

// querySizes fixes one federation's operation counts.
type querySizes struct {
	frames          int // preloaded upload frames
	recordsPerFrame int
	preRounds       int // rounds pushed during set-up, so scores are non-trivial
	batches         int // distinct predict batches, cycled
	batchRows       int
	reads           int // client 1 requests: 3 predicts to 1 scores
	traces          int // client 2 requests
	traceRows       int
	repeatEvery     int // every repeatEvery-th trace repeats a recent subset
}

// querySizesFor sizes a run to about seconds on a 2-CPU host: a read takes
// ~0.7 ms and a trace miss ~20 ms, both under the other client's load.
func querySizesFor(seconds int) querySizes {
	return querySizes{
		frames: 64, recordsPerFrame: 1024, preRounds: 16,
		batches: 16, batchRows: 32, reads: 300 * seconds,
		traces: 12 * seconds, traceRows: 64, repeatEvery: 4,
	}
}

func runQuery(cfg runConfig) (*outcome, error) {
	return runQuerySized(cfg, querySizesFor(cfg.seconds))
}

// queryAcc pools measurements over a run's federations.
type queryAcc struct {
	setup, materialize sample
	rss                []float64
	wall               time.Duration
	pr, sc, tr         *route
	traceMiss          sample
	lookups, hits      float64

	// The traced replay, per call.
	codec, score, snap, scoresCodec, readCSV, build, trace, alloc sample
	jobWait, jobRun                                               []float64
}

func runQuerySized(cfg runConfig, sz querySizes) (*outcome, error) {
	out := newOutcome()
	if cfg.trace {
		out.spans = newSpanLog()
	}
	acc := &queryAcc{pr: &route{name: "predict"}, sc: &route{name: "scores"}, tr: &route{name: "trace"}}
	for e := 0; e < federations; e++ {
		if err := queryFederation(cfg, sz, e, acc, out); err != nil {
			return nil, fmt.Errorf("federation %d: %w", e, err)
		}
	}
	pr, sc, tr := acc.pr, acc.sc, acc.tr
	out.addRoute(pr)
	out.addRoute(sc)
	out.addRoute(tr)
	rss := median(acc.rss)
	done := pr.lat.n() + pr.traced.n() + sc.lat.n() + sc.traced.n() + tr.lat.n() + tr.traced.n()
	out.e2e["setup_s"] = acc.setup.p50() / 1e3
	out.e2e["peak_rss_mb"] = rss
	out.e2e["ops_s"] = float64(done) / acc.wall.Seconds()
	out.e2e["light_p50_ms"] = pr.lat.p50()
	out.e2e["heavy_p50_ms"] = tr.lat.p50()

	out.notef("end-to-end light_p50_ms = predict_p50_ms, heavy_p50_ms = trace_p50_ms")
	out.metric("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d federations, each preloading %d records",
		acc.setup.n(), sz.frames*sz.recordsPerFrame))
	out.metric("peak_rss_mb", rss, "MB", "node process, median of the federations")
	out.metric("ops_s", out.e2e["ops_s"], "1/s", fmt.Sprintf("%d completed requests in %.2f s", done, acc.wall.Seconds()))
	out.namedLatency("predict", pr.all(), 99)
	out.metric("scores_p50_ms", sc.all().p50(), "ms", fmt.Sprintf("n=%d", sc.all().n()))
	out.namedLatency("trace", tr.all(), 90)
	out.metric("trace_miss_p50_ms", acc.traceMiss.p50(), "ms", fmt.Sprintf("n=%d first requests of a subset", acc.traceMiss.n()))

	if cfg.trace {
		jobWait := median(acc.jobWait)
		out.layers["dataset.materialize_ms"] = acc.materialize.p50()
		out.layers["dataset.read_csv_us"] = acc.readCSV.p50() * 1e3
		out.layers["core.build_ms"] = acc.build.p50()
		out.layers["core.trace_ms"] = acc.trace.p50()
		out.layers["core.alloc_us"] = acc.alloc.p50() * 1e3
		out.layers["protocol.predict_codec_us"] = acc.codec.p50() * 1e3
		out.layers["nn.score_us"] = acc.score.p50() * 1e3
		out.layers["rounds.snapshot_us"] = acc.snap.p50() * 1e3
		out.layers["jobs.wait_ms"] = jobWait
		out.layers["jobs.run_ms"] = median(acc.jobRun)
		if acc.lookups > 0 {
			out.layers["jobs.hit_ratio"] = acc.hits / acc.lookups
		}
		out.layers["server.predict_self_us"] = selfUS(pr.all().p50(), acc.codec.p50(), acc.score.p50())
		out.layers["server.scores_self_us"] = selfUS(sc.all().p50(), acc.snap.p50(), acc.scoresCodec.p50())
		out.layers["server.trace_self_us"] = selfUS(acc.traceMiss.p50(), acc.readCSV.p50(), acc.build.p50(),
			acc.trace.p50(), acc.alloc.p50(), jobWait)
		out.layers["trace.overhead_pct"] = overheadPct(pr)
		out.notef("jobs.wait_ms and jobs.run_ms: per-federation means from the node's /metrics histograms, median over federations")
	}
	return out, nil
}

// queryFederation sets up one federation on a fresh node, runs the two
// clients against it, and checks every answer against in-process
// references.
func queryFederation(cfg runConfig, sz querySizes, e int, acc *queryAcc, out *outcome) error {
	seed := subSeed(cfg.seed, e)
	dataDir := filepath.Join(cfg.dir, fmt.Sprintf("node%d", e))
	t0 := time.Now()
	in, err := buildInputs(seed, sz.frames, sz.recordsPerFrame)
	if err != nil {
		return err
	}
	steps, err := in.roundSteps(sz.preRounds, 4)
	if err != nil {
		return err
	}
	n, _, err := startNode(cfg.nodeBin, dataDir, dataDir+".log")
	if err != nil {
		return err
	}
	defer n.kill()
	if err := in.publish(n); err != nil {
		return err
	}
	for _, f := range in.frames {
		if _, err := n.expect(http.StatusOK, http.MethodPost, "/v1/uploads", protocol.ContentTypeFrame, "", f); err != nil {
			return err
		}
	}
	var frame []byte
	for r := 1; r <= len(steps); r++ {
		frame = in.roundFrame(frame, steps, r)
		if _, err := n.expect(http.StatusOK, http.MethodPost, "/v1/rounds", protocol.ContentTypeFrame, "", frame); err != nil {
			return err
		}
	}
	acc.setup.add(time.Since(t0))
	acc.materialize.ms = append(acc.materialize.ms, in.materializeMS)

	// Request bodies and the trace plan, from the seed.
	rng := rand.New(rand.NewSource(seed))
	batches, batchRows, err := in.predictBatches(rng, sz.batches, sz.batchRows)
	if err != nil {
		return err
	}
	distinct := sz.traces - sz.traces/sz.repeatEvery
	subsets, err := in.traceSubsets(rng, distinct, sz.traceRows)
	if err != nil {
		return err
	}
	// plan[j] is the subset trace request j sends; a repeat picks one of
	// the last 8 distinct subsets, well inside the node's 128-job cache.
	plan := make([]int, 0, sz.traces)
	repeat := make([]bool, 0, sz.traces)
	for j, next := 0, 0; j < sz.traces; j++ {
		if (j+1)%sz.repeatEvery == 0 && next > 0 {
			plan = append(plan, next-1-rng.Intn(min(next, 8)))
			repeat = append(repeat, true)
			continue
		}
		plan = append(plan, next)
		repeat = append(repeat, false)
		next++
	}

	before, err := n.scrape()
	if err != nil {
		return err
	}
	spans, pr, sc, tr := out.spans, acc.pr, acc.sc, acc.tr
	predictGot := make([][]float64, sz.reads)
	scoresGot := make([]*protocol.ScoresSnapshot, sz.reads)
	traceGot := make([]*protocol.TraceResult, sz.traces)
	acc.wall += runClients(func() {
		for i := 0; i < sz.reads; i++ {
			if i%4 == 3 {
				sc.call(spans, int64(i), func() error {
					body, err := n.expect(http.StatusOK, http.MethodGet, "/v1/scores", "", protocol.ContentTypeFrame, nil)
					if err != nil {
						return err
					}
					f, _, err := protocol.ParseFrame(body)
					if err != nil {
						return err
					}
					scoresGot[i], err = protocol.ParseScoresSnapshot(f)
					return err
				})
				continue
			}
			pr.call(spans, int64(i), func() error {
				body, err := n.expect(http.StatusOK, http.MethodPost, "/v1/predict", protocol.ContentTypeFrame, protocol.ContentTypeFrame, batches[i%len(batches)])
				if err != nil {
					return err
				}
				f, _, err := protocol.ParseFrame(body)
				if err != nil {
					return err
				}
				predictGot[i], err = protocol.ParsePredictResponse(f, nil)
				return err
			})
		}
	}, func() {
		for j, k := range plan {
			d := tr.call(spans, int64(j), func() error {
				body, err := n.expect(http.StatusOK, http.MethodPost, "/v1/trace?tau=0.9&delta=2&wait=60s", "text/csv", protocol.ContentTypeFrame, subsets[k])
				if err != nil {
					return err
				}
				f, _, err := protocol.ParseFrame(body)
				if err != nil {
					return err
				}
				traceGot[j], err = protocol.ParseTraceResult(f)
				return err
			})
			if !repeat[j] {
				acc.traceMiss.add(d)
			}
		}
	})
	after, err := n.scrape()
	if err != nil {
		return err
	}
	rss, err := n.peakRSS()
	if err != nil {
		return err
	}
	acc.rss = append(acc.rss, rss)

	// In-process references: the compiled model, the round engine over the
	// pre-pushed rounds, and one tracer over the preloaded uploads.
	bin := in.model.Binarize()
	out.checkPredicts(bin, batchRows, predictGot)
	ref, err := newRoundReplay(in, steps, nil)
	if err != nil {
		return err
	}
	out.checkScores(ref.eng.Snapshot(), scoresGot)
	uploads, parts, err := in.preloaded()
	if err != nil {
		return err
	}
	coreObs := core.NewObs(telemetry.NewRegistry())
	tracer := core.NewTracerFromUploads(in.rs, parts, uploads, core.Config{TauW: 0.9, Delta: 2, Obs: coreObs})
	want := make([]*protocol.TraceResult, len(subsets))
	for k, body := range subsets {
		test, err := readTraceCSV(in, body)
		if err != nil {
			return err
		}
		want[k] = traceResult(tracer.Trace(test))
	}
	out.checkTraces(plan, traceGot, want)

	d := deltas(before, after)
	out.checkCount("jobs lookups", d["ctfl_jobs_cache_lookups_total"], float64(sz.traces), "trace requests")
	out.checkCount("jobs cache hits", d["ctfl_jobs_cache_hits_total"], float64(sz.traces-distinct), "repeated trace subsets")
	out.checkCount("tracer dedup hits", d["ctfl_tracer_pattern_dedup_hits_total"], float64(coreObs.PatternDedupHits.Value()),
		"in-process tracer over the same subsets")
	out.notef("federation %d /metrics deltas: jobs lookups %g, cache hits %g, tracer pattern-dedup hits %g",
		e, d["ctfl_jobs_cache_lookups_total"], d["ctfl_jobs_cache_hits_total"], d["ctfl_tracer_pattern_dedup_hits_total"])
	acc.lookups += d["ctfl_jobs_cache_lookups_total"]
	acc.hits += d["ctfl_jobs_cache_hits_total"]

	if cfg.trace {
		for _, h := range []struct {
			name string
			dst  *[]float64
		}{{"ctfl_jobs_wait_seconds", &acc.jobWait}, {"ctfl_jobs_run_seconds", &acc.jobRun}} {
			if c := d[h.name+"_count"]; c > 0 {
				*h.dst = append(*h.dst, d[h.name+"_sum"]/c*1e3)
			}
		}
		if err := queryLayers(in, sz, bin, ref, batches, subsets, acc, spans); err != nil {
			return err
		}
	}
	return nil
}

// preloaded decodes the preloaded upload frames as the node decodes them,
// and counts participants as the node does: the highest id seen, plus one.
func (in *fedInputs) preloaded() ([]core.TrainingUpload, int, error) {
	var ups []core.TrainingUpload
	parts := 0
	for _, f := range in.frames {
		var info protocol.UploadFrameInfo
		var err error
		if ups, info, err = protocol.AppendTrainingRecords(ups, f); err != nil {
			return nil, 0, err
		}
		parts = max(parts, info.Participant+1)
	}
	return ups, parts, nil
}

// readTraceCSV parses a trace body as the node's trace handler does.
func readTraceCSV(in *fedInputs, body []byte) (*dataset.Table, error) {
	return dataset.ReadCSV(bytes.NewReader(body), in.enc.Schema(), dataset.CSVOptions{
		HasHeader: true, PositiveLabel: in.enc.Schema().Labels[1], TrimSpace: true, ClampContinuous: true,
	})
}

// traceResult allocates scores from a trace the way the node's trace job
// does.
func traceResult(res *core.Result) *protocol.TraceResult {
	sus := res.Suspicion(0.5)
	return &protocol.TraceResult{
		Accuracy:     res.Accuracy(),
		CoverageGap:  res.CoverageGap(),
		Micro:        res.MicroScores(),
		Macro:        res.MacroScores(),
		LossRatio:    sus.Ratio,
		UselessRatio: res.UselessRatio(),
		Suspects:     sus.Suspects,
	}
}

func sameTrace(a, b *protocol.TraceResult) bool {
	if math.Float64bits(a.Accuracy) != math.Float64bits(b.Accuracy) ||
		math.Float64bits(a.CoverageGap) != math.Float64bits(b.CoverageGap) ||
		hashFloats(a.Micro, a.Macro, a.LossRatio, a.UselessRatio) != hashFloats(b.Micro, b.Macro, b.LossRatio, b.UselessRatio) ||
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

// checkPredicts compares every predict answer with nn.Binarized on the same
// rows, bit for bit.
func (o *outcome) checkPredicts(bin *nn.Binarized, rows [][]float32, got [][]float64) {
	want := make([][]float64, len(rows))
	for b, r := range rows {
		want[b] = make([]float64, len(r)/bin.InDim())
		bin.ScoreBatchFloat32(r, want[b])
	}
	bad, n := 0, 0
	for i, g := range got {
		if g == nil {
			continue
		}
		n++
		if hashFloats(g) != hashFloats(want[i%len(want)]) {
			bad++
		}
	}
	o.failed += int64(bad)
	o.check("predict.scores", bad == 0, "%d of %d predict answers differ from in-process Binarized.ScoreBatchFloat32", bad, n)
}

// checkScores compares every score read with the in-process engine's
// snapshot over the same rounds.
func (o *outcome) checkScores(w protocol.ScoresSnapshot, got []*protocol.ScoresSnapshot) {
	bad, n := 0, 0
	for _, g := range got {
		if g == nil {
			continue
		}
		n++
		if g.Rounds != w.Rounds || g.Skipped != w.Skipped || hashFloats(g.Scores) != hashFloats(w.Scores) {
			bad++
		}
	}
	o.failed += int64(bad)
	o.check("scores.snapshot", bad == 0, "%d of %d score reads differ from the in-process rounds.Engine", bad, n)
}

// checkTraces compares every trace answer with the in-process tracer's.
func (o *outcome) checkTraces(plan []int, got, want []*protocol.TraceResult) {
	bad, n := 0, 0
	for j, g := range got {
		if g == nil {
			continue
		}
		n++
		if !sameTrace(g, want[plan[j]]) {
			bad++
		}
	}
	o.failed += int64(bad)
	o.check("trace.results", bad == 0, "%d of %d trace answers differ from in-process NewTracerFromUploads + Trace", bad, n)
}

// queryLayers replays one federation's reads through each layer's public
// functions, every call a span.
func queryLayers(in *fedInputs, sz querySizes, bin *nn.Binarized, ref *roundReplay, batches, subsets [][]byte, acc *queryAcc, log *spanLog) error {
	timed := func(s *sample, name string, op int64, fn func()) {
		sp := log.start(name, op, -1)
		t0 := time.Now()
		fn()
		s.add(time.Since(t0))
		log.end(sp)
	}
	var rows []float32
	var resp []byte
	dst := make([]float64, sz.batchRows)
	for i := 0; i < sz.reads; i++ {
		if i%4 == 3 {
			var s protocol.ScoresSnapshot
			timed(&acc.snap, "rounds.snapshot", int64(i), func() { s = ref.eng.Snapshot() })
			timed(&acc.scoresCodec, "protocol.scores_codec", int64(i), func() { resp = protocol.AppendScoresSnapshot(resp[:0], &s) })
			continue
		}
		// The node's binary predict path: parse the frame and copy out the
		// rows, score them, encode the answer. The codec is both ends.
		body := batches[i%len(batches)]
		t0 := time.Now()
		f, _, err := protocol.ParseFrame(body)
		if err != nil {
			return err
		}
		req, err := protocol.ParsePredictRequest(f)
		if err != nil {
			return err
		}
		rows = req.AppendRows(rows[:0])
		t1 := time.Now()
		bin.ScoreBatchFloat32(rows, dst)
		t2 := time.Now()
		resp = protocol.AppendPredictResponse(resp[:0], dst)
		t3 := time.Now()
		log.record("protocol.predict_codec", int64(i), -1, t0, t1.Sub(t0))
		log.record("nn.score", int64(i), -1, t1, t2.Sub(t1))
		log.record("protocol.predict_codec", int64(i), -1, t2, t3.Sub(t2))
		acc.codec.add(t1.Sub(t0) + t3.Sub(t2))
		acc.score.add(t2.Sub(t1))
	}
	uploads, parts, err := in.preloaded()
	if err != nil {
		return err
	}
	for k, body := range subsets {
		var test *dataset.Table
		timed(&acc.readCSV, "dataset.read_csv", int64(k), func() { test, err = readTraceCSV(in, body) })
		if err != nil {
			return err
		}
		// The node's trace job: clone the registered uploads (the tracer
		// masks them in place), build, trace, allocate.
		var tracer *core.Tracer
		timed(&acc.build, "core.build", int64(k), func() {
			clone := make([]core.TrainingUpload, len(uploads))
			for i, u := range uploads {
				clone[i] = core.TrainingUpload{Owner: u.Owner, Label: u.Label, Activations: u.Activations.Clone()}
			}
			tracer = core.NewTracerFromUploads(in.rs, parts, clone, core.Config{TauW: 0.9, Delta: 2})
		})
		var res *core.Result
		timed(&acc.trace, "core.trace", int64(k), func() { res = tracer.Trace(test) })
		timed(&acc.alloc, "core.alloc", int64(k), func() { _ = traceResult(res) })
	}
	return nil
}
