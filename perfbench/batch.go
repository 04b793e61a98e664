package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rules"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/valuation"
)

// paper-batch: the paper pipeline in process on tic-tac-toe at its natural
// 958 rows with n = 8 skew-label participants (the paper's defaults). The
// light operation is one CTFL scoring pass (FedAvg train -> rule extract ->
// tracer build -> trace -> micro/macro allocate); the heavy one is a seeded
// Shapley scoring pass at equal n over a benchmark-owned memoizing oracle,
// so heavy/light is the paper's Fig. 5 ratio. Training and coalition
// valuation do almost all the work here and none in the service workloads.

// federations is how many federations one run draws from its seed (see
// subSeed). Pooling operations over several federations keeps a run's
// medians from hanging on one draw of the data partition and model.
const federations = 3

// subSeed derives federation e's seed from the run's seed; distinct runs
// never share a federation.
func subSeed(seed int64, e int) int64 { return seed*federations + int64(e) }

// batchSizes fixes the operation counts of one run. Counts, not a clock,
// end the run, so every run at a seed does the same work.
type batchSizes struct {
	iters       int // iterations of ctflPerIter CTFL passes + 1 Shapley pass, rotating over the federations
	ctflPerIter int
}

// batchSizesFor sizes a run to about seconds on a 2-CPU host (a CTFL pass
// ~0.15 s, a Shapley pass ~3.5 s), with at least 40 CTFL passes so their
// tail is a p75.
func batchSizesFor(seconds int) batchSizes {
	iters := federations * max(1, seconds/15)
	return batchSizes{iters: iters, ctflPerIter: max(7, (40+iters-1)/iters)}
}

// shapleyPermutations is the permutation budget of the Shapley pass. With
// truncation off every permutation walks all n prefixes, so the number of
// coalition trainings hardly depends on the seed; with the default
// truncation it swings with the seed by ±20% and the metric with it.
func shapleyPermutations(n int) int { return n }

func runBatch(cfg runConfig) (*outcome, error) {
	return runBatchSized(cfg, batchSizesFor(cfg.seconds))
}

func runBatchSized(cfg runConfig, sz batchSizes) (*outcome, error) {
	out := newOutcome()
	var setup sample
	feds := make([]*experiments.Setup, federations)
	for e := range feds {
		t0 := time.Now()
		s, err := experiments.Materialize(experiments.QuickWorkload("tic-tac-toe", true, subSeed(cfg.seed, e)))
		if err != nil {
			return nil, fmt.Errorf("materialize: %w", err)
		}
		setup.add(time.Since(t0))
		feds[e] = s
		// One untimed pass fills the trainer's per-participant encode
		// cache, the lazy set-up every later pass reuses.
		if _, err := ctflPass(s, nil, -1); err != nil {
			return nil, err
		}
	}

	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
		out.spans = spans
	}
	var ctfl, ctflTraced, shap sample
	ctflHash := make([]string, federations)
	shapHash := make([]string, federations)
	var shapTraced []shapleyRun
	differ := 0 // passes whose scores differ from their federation's first pass
	op := int64(0)
	start := time.Now()
	for it := 0; it < sz.iters; it++ {
		e := it % federations
		s := feds[e]
		for k := 0; k < sz.ctflPerIter; k++ {
			op++
			// A traced run alternates traced and untraced passes, so the
			// tracing overhead is measured under the same conditions.
			var log *spanLog
			if cfg.trace && op%2 == 0 {
				log = spans
			}
			t0 := time.Now()
			r, err := ctflPass(s, log, op)
			d := time.Since(t0)
			out.attempted++
			if err != nil {
				out.failed++
				out.notef("ctfl pass %d: %v", op, err)
				continue
			}
			if log != nil {
				ctflTraced.add(d)
			} else {
				ctfl.add(d)
			}
			same := sameHash(&ctflHash[e], r.hash)
			if !same {
				differ++
			}
			if !out.checkCTFL(r, op) || !same {
				out.failed++
			}
		}
		op++
		traced := cfg.trace && it >= sz.iters/2
		t0 := time.Now()
		r, err := shapleyPass(s, subSeed(cfg.seed, e), traced, spans, op)
		d := time.Since(t0)
		out.attempted++
		if err != nil {
			out.failed++
			out.notef("shapley pass %d: %v", op, err)
			continue
		}
		if traced {
			shapTraced = append(shapTraced, r)
		} else {
			shap.add(d)
		}
		if !sameHash(&shapHash[e], r.hash) {
			differ++
			out.failed++
		}
	}
	elapsed := time.Since(start)
	digest := fmt.Sprintf("ctfl=%s shapley=%s", strings.Join(ctflHash, ","), strings.Join(shapHash, ","))
	out.check("scores.hash-stable", differ == 0, "%s; %d passes differed from their federation's first", digest, differ)
	if err := out.checkAcrossRuns(cfg, digest); err != nil {
		return nil, err
	}

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setup.p50() / 1e3
	out.e2e["peak_rss_mb"] = rss
	out.e2e["ops_s"] = float64(ctfl.n()+ctflTraced.n()+shap.n()+len(shapTraced)) / elapsed.Seconds()
	out.e2e["light_p50_ms"] = ctfl.p50()
	out.e2e["heavy_p50_ms"] = shap.p50()

	out.notef("end-to-end light_p50_ms = ctfl_scores_s, heavy_p50_ms = shapley_scores_s")
	out.metric("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d materializations", setup.n()))
	out.metric("peak_rss_mb", rss, "MB", "benchmark process")
	out.metric("ctfl_scores_s", ctfl.p50()/1e3, "s", fmt.Sprintf("median of %d passes over %d federations", ctfl.n(), federations))
	if v, p, ok := ctfl.tail(99); ok {
		out.metric(fmt.Sprintf("ctfl_scores_p%g_s", p), v/1e3, "s", fmt.Sprintf("n=%d", ctfl.n()))
	}
	out.metric("shapley_scores_s", shap.p50()/1e3, "s", fmt.Sprintf("median of %d passes, %d permutations, no truncation", shap.n(), shapleyPermutations(len(feds[0].Parts))))
	if ctfl.p50() > 0 {
		out.metric("fig5_ratio", shap.p50()/ctfl.p50(), "x", "shapley_scores_s / ctfl_scores_s (reported, not gated)")
	}

	if cfg.trace {
		out.batchLayers(spans, setup, ctfl, ctflTraced, shapTraced)
	}
	return out, nil
}

// sameHash reports whether a pass reproduced its federation's first scores
// bit for bit; first holds the first pass's digest.
func sameHash(first *string, hash string) bool {
	if *first == "" {
		*first = hash
	}
	return hash == *first
}

// ctflResult is one CTFL pass's scores.
type ctflResult struct {
	micro, macro  []float64
	accuracy, gap float64
	hash          string
}

// ctflPass runs the CTFL pipeline once. Untraced, it goes through
// core.Scheme.Run, the pipeline's public entry point; traced, it makes the
// same five calls Run makes, each under its own span.
func ctflPass(s *experiments.Setup, log *spanLog, op int64) (*ctflResult, error) {
	if log == nil {
		sc := &core.Scheme{Variant: core.Micro, Trainer: s.Trainer, Cfg: s.CTFLConfig()}
		_, _, res, err := sc.Run(s.Parts, s.Test)
		if err != nil {
			return nil, err
		}
		r := &ctflResult{micro: res.MicroScores(), macro: res.MacroScores()}
		return r.finish(res), nil
	}
	root := log.start("ctfl", op, -1)
	defer log.end(root)
	sp := log.start("fl.train", op, root)
	model, err := s.Trainer.Train(s.Parts)
	log.end(sp)
	if err != nil {
		return nil, err
	}
	sp = log.start("rules.extract", op, root)
	rs := rules.Extract(model, s.Trainer.Encoder())
	log.end(sp)
	sp = log.start("core.build", op, root)
	tracer := core.NewTracer(rs, s.Parts, s.CTFLConfig())
	log.end(sp)
	sp = log.start("core.trace", op, root)
	res := tracer.Trace(s.Test)
	log.end(sp)
	sp = log.start("core.alloc", op, root)
	r := &ctflResult{micro: res.MicroScores(), macro: res.MacroScores()}
	log.end(sp)
	return r.finish(res), nil
}

func (r *ctflResult) finish(res *core.Result) *ctflResult {
	r.accuracy, r.gap = res.Accuracy(), res.CoverageGap()
	r.hash = hashFloats(r.micro, r.macro)
	return r
}

// checkCTFL verifies group rationality: sum(micro) = accuracy - coverage gap.
func (o *outcome) checkCTFL(r *ctflResult, op int64) bool {
	sum := stats.Sum(r.micro)
	want := r.accuracy - r.gap
	ok := math.Abs(sum-want) <= 1e-9
	if !ok || op == 1 {
		o.check("ctfl.group-rationality", ok, "pass %d: sum(micro)=%.12f, accuracy-gap=%.12f", op, sum, want)
	}
	return ok
}

// shapleyRun is one Shapley pass's scores and oracle counters.
type shapleyRun struct {
	hash         string
	evals, hits  int
	trainSeconds float64 // mean seconds per coalition training
}

// shapleyPass scores the federation with sampled Shapley over a fresh
// memoizing oracle. Untraced, it goes through valuation.ShapleyValue;
// traced, it calls valuation.SampledShapley with the same configuration
// and times every utility call.
func shapleyPass(s *experiments.Setup, seed int64, traced bool, log *spanLog, op int64) (shapleyRun, error) {
	o, err := valuation.NewOracle(s.Trainer, s.Parts, s.Test)
	if err != nil {
		return shapleyRun{}, err
	}
	n := len(s.Parts)
	var scores []float64
	if !traced {
		sv := &valuation.ShapleyValue{
			Trainer: s.Trainer, Seed: seed, SharedOracle: o,
			Permutations: shapleyPermutations(n), TruncationEps: -1,
		}
		if scores, err = sv.Scores(s.Parts, s.Test); err != nil {
			return shapleyRun{}, err
		}
		return shapleyRun{hash: hashFloats(scores), evals: o.Evals(), hits: o.CacheHits()}, nil
	}
	o.Obs = valuation.NewObs(telemetry.NewRegistry())
	root := log.start("shapley", op, -1)
	utility := func(mask uint64) (float64, error) {
		sp := log.start("valuation.utility", op, root)
		defer log.end(sp)
		return o.Utility(mask)
	}
	warm := func(plan []uint64) error {
		sp := log.start("valuation.warm", op, root)
		defer log.end(sp)
		return o.EvalBatch(plan)
	}
	// The configuration ShapleyValue.Scores builds for the untraced pass.
	scores, err = valuation.SampledShapley(n, utility, valuation.ShapleyConfig{
		Permutations:  shapleyPermutations(n),
		TruncationEps: -1,
		Rand:          rand.New(rand.NewSource(seed + 101)),
		Workers:       runtime.GOMAXPROCS(0),
		Warm:          warm,
	})
	log.end(root)
	if err != nil {
		return shapleyRun{}, err
	}
	ts := o.Obs.TrainSeconds.Snapshot()
	r := shapleyRun{hash: hashFloats(scores), evals: o.Evals(), hits: o.CacheHits()}
	if ts.Count > 0 {
		r.trainSeconds = ts.Sum / float64(ts.Count)
	}
	return r, nil
}

// batchLayers derives the paper-batch per-layer metrics from the traced
// passes.
func (o *outcome) batchLayers(spans *spanLog, setup, ctfl, ctflTraced sample, shap []shapleyRun) {
	by := selfByName(spans.snapshot())
	stage := func(name string) float64 { return median(by[name]) }
	o.layers["dataset.materialize_ms"] = setup.p50()
	o.layers["fl.train_s"] = stage("fl.train") / 1e3
	o.layers["rules.extract_ms"] = stage("rules.extract")
	o.layers["core.build_ms"] = stage("core.build")
	o.layers["core.trace_ms"] = stage("core.trace")
	o.layers["core.alloc_us"] = stage("core.alloc") * 1e3
	sum := stage("fl.train") + stage("rules.extract") + stage("core.build") + stage("core.trace") + stage("core.alloc")
	// The accounting: the five stages cover a traced pass; what they leave
	// uncovered is the root span's self time.
	gap := median(by["ctfl"])
	o.check("ctfl.stage-sum", gap <= 0.05*ctflTraced.p50(),
		"train+extract+build+trace+allocate leave %.3f ms of a %.2f ms traced pass unaccounted (must be under 5%%)",
		gap, ctflTraced.p50())
	// Against the untraced passes the stage sum differs by the tracing
	// overhead plus pass-to-pass noise of a few percent, so the ratio is
	// reported rather than asserted.
	if ctfl.p50() > 0 {
		o.notef("stage sum %.2f ms / ctfl_scores_s %.2f ms = %.3f", sum, ctfl.p50(), sum/ctfl.p50())
		o.layers["trace.overhead_pct"] = (ctflTraced.p50() - ctfl.p50()) / ctfl.p50() * 100
	}
	var evals, hitRatio, train []float64
	for _, r := range shap {
		evals = append(evals, float64(r.evals))
		if r.evals+r.hits > 0 {
			hitRatio = append(hitRatio, float64(r.hits)/float64(r.evals+r.hits))
		}
		train = append(train, r.trainSeconds)
	}
	o.layers["valuation.evals"] = median(evals)
	o.layers["valuation.hit_ratio"] = median(hitRatio)
	o.layers["valuation.train_s"] = median(train)
	o.notef("valuation.hit_ratio = oracle cache hits / (hits + coalition trainings)")
}

// hashFloats digests float64 vectors bit for bit.
func hashFloats(vecs ...[]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vecs {
		binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
		h.Write(b[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkAcrossRuns compares this run's score digest with the one an earlier
// run of the same workload, seed and source left in the keep directory, and
// leaves it there for the next run.
func (o *outcome) checkAcrossRuns(cfg runConfig, digest string) error {
	path := filepath.Join(cfg.keepDir, fmt.Sprintf("scores-%s-seed%d-%s.txt", cfg.workload, cfg.seed, cfg.source))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		got := strings.TrimSpace(string(prev))
		o.check("scores.same-across-runs", got == digest, "this run %s, earlier run %s", digest, got)
		return nil
	case os.IsNotExist(err):
		o.notef("first run at this seed and source: score digest recorded for later runs")
		return os.WriteFile(path, []byte(digest+"\n"), 0o644)
	default:
		return err
	}
}
