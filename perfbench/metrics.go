package main

// metricDef names one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (TestCatalogMatchesBenchmarkJSON keeps them
// in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd is what an untraced run reports, on every workload. Each workload
// has a light and a heavy operation (see the workload docs):
//
//	paper-batch     light = CTFL scoring pass   heavy = Shapley scoring pass
//	service-ingest  light = POST /v1/uploads    heavy = POST /v1/rounds (scored)
//	service-query   light = POST /v1/predict    heavy = POST /v1/trace?wait=
//
// Tails (upload, predict and round p99, trace p90) are reported by name but
// not gated: on a shared 2-CPU host with fsync on, the upload p99 of the
// same code spread 19-29% across ten runs, wider than any bound a
// regression gate can use.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_s", "1/s", "higher"},
	{"light_p50_ms", "ms", "lower"},
	{"heavy_p50_ms", "ms", "lower"},
}

// perLayer is what a traced run reports, on every workload; a layer the
// workload never calls reports 0.
var perLayer = []metricDef{
	{"dataset.materialize_ms", "ms", "lower"},
	{"dataset.read_csv_us", "us", "lower"},
	{"fl.train_s", "s", "lower"},
	{"rules.extract_ms", "ms", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.trace_ms", "ms", "lower"},
	{"core.alloc_us", "us", "lower"},
	{"valuation.evals", "count", "lower"},
	{"valuation.hit_ratio", "ratio", "higher"},
	{"valuation.train_s", "s", "lower"},
	{"protocol.validate_us", "us", "lower"},
	{"protocol.decode_us", "us", "lower"},
	{"protocol.predict_codec_us", "us", "lower"},
	{"store.append_us", "us", "lower"},
	{"store.appends", "count", "lower"},
	{"store.write_amp", "ratio", "lower"},
	{"store.compactions", "count", "lower"},
	{"store.compact_ms", "ms", "lower"},
	{"store.replay_ms", "ms", "lower"},
	{"rounds.compute_ms", "ms", "lower"},
	{"rounds.apply_us", "us", "lower"},
	{"rounds.evals", "count", "lower"},
	{"rounds.skip_ratio", "ratio", "higher"},
	{"rounds.replay_ms", "ms", "lower"},
	{"rounds.snapshot_us", "us", "lower"},
	{"jobs.wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.hit_ratio", "ratio", "higher"},
	{"nn.score_us", "us", "lower"},
	{"server.upload_self_us", "us", "lower"},
	{"server.round_self_us", "us", "lower"},
	{"server.predict_self_us", "us", "lower"},
	{"server.scores_self_us", "us", "lower"},
	{"server.trace_self_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// movesWhat names, for the traced report, the end-to-end metric each layer
// metric should move, by the per-workload names the report prints.
var movesWhat = map[string]string{
	"dataset.materialize_ms":    "setup_s",
	"dataset.read_csv_us":       "trace_p50_ms",
	"fl.train_s":                "ctfl_scores_s, shapley_scores_s",
	"rules.extract_ms":          "ctfl_scores_s",
	"core.build_ms":             "ctfl_scores_s, trace_p50_ms",
	"core.trace_ms":             "ctfl_scores_s, trace_p50_ms",
	"core.alloc_us":             "ctfl_scores_s, trace_p50_ms",
	"valuation.evals":           "shapley_scores_s",
	"valuation.hit_ratio":       "shapley_scores_s",
	"valuation.train_s":         "shapley_scores_s",
	"protocol.validate_us":      "upload_p50_ms",
	"protocol.decode_us":        "upload_p50_ms",
	"protocol.predict_codec_us": "predict_p50_ms",
	"store.append_us":           "upload_p50_ms, round_p50_ms, ops_s",
	"store.appends":             "upload_p50_ms, round_p50_ms, ops_s",
	"store.write_amp":           "upload_p99_ms",
	"store.compactions":         "upload_p99_ms",
	"store.compact_ms":          "upload_p99_ms",
	"store.replay_ms":           "replay_s",
	"rounds.compute_ms":         "round_p50_ms, round_p99_ms",
	"rounds.apply_us":           "round_p50_ms, round_p99_ms",
	"rounds.evals":              "round_p50_ms, round_p99_ms",
	"rounds.skip_ratio":         "round_p50_ms, round_p99_ms",
	"rounds.replay_ms":          "replay_s",
	"rounds.snapshot_us":        "scores_p50_ms",
	"jobs.wait_ms":              "trace_p50_ms, trace_p90_ms",
	"jobs.run_ms":               "trace_p50_ms, trace_p90_ms",
	"jobs.hit_ratio":            "trace_p50_ms, trace_p90_ms",
	"nn.score_us":               "predict_p50_ms",
	"server.upload_self_us":     "upload_p50_ms, ops_s",
	"server.round_self_us":      "round_p50_ms, ops_s",
	"server.predict_self_us":    "predict_p50_ms, ops_s",
	"server.scores_self_us":     "scores_p50_ms, ops_s",
	"server.trace_self_us":      "trace_p50_ms, ops_s",
	"trace.overhead_pct":        "light_p50_ms (traced against untraced operations)",
}
