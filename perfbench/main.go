// Command perfbench is the repository benchmark. It runs one of three
// workloads against the CTFL code through its public entry points — the
// experiments/fl/core/valuation packages in process, and a ctflsrv node
// over loopback HTTP with a real data directory and fsync on — checks every
// output, and prints its metrics.
//
// Usage (normally through run.py, which builds this binary and the node):
//
//	perfbench --workload paper-batch|service-ingest|service-query
//	          --seed N --seconds S --trace 0|1
//	          --node-bin path/to/ctflsrv --work-dir .bench_build/work
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) replays the same generated inputs through each layer's public
// functions with every call timed as a span, and reports the per-layer
// metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics; the lines before it are a
// human-readable report stamped with a host fingerprint.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nodeBin  string
	// dir is this run's private scratch directory (node data dirs, probes).
	dir string
	// keepDir holds files that outlive the run: spans and score digests.
	keepDir string
	// source identifies the code under test (see sourceHash).
	source string
}

// workload runs one traffic shape and returns what it measured.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{"paper-batch", runBatch},
	{"service-ingest", runIngest},
	{"service-query", runQuery},
}

// outcome is one workload run's measurements and checks.
type outcome struct {
	e2e    map[string]float64
	layers map[string]float64
	// named holds the per-workload metrics under their descriptive names
	// (ctfl_scores_s, upload_p99_ms, ...), printed in the report.
	named     []namedMetric
	notes     []string
	attempted int64
	failed    int64
	checks    []check
	spans     *spanLog
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check records an output check; a failed check makes the run incorrect.
func (o *outcome) check(name string, ok bool, format string, args ...any) bool {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	return ok
}

func (o *outcome) metric(name string, value float64, unit, note string) {
	o.named = append(o.named, namedMetric{name, value, unit, note})
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "paper-batch, service-ingest or service-query")
	seed := fs.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := fs.Int("seconds", 30, "target measured time; operation counts are sized from it")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	nodeBin := fs.String("node-bin", "", "ctflsrv binary for the service workloads")
	workDir := fs.String("work-dir", ".bench_build/work", "scratch directory inside the checkout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of paper-batch, service-ingest, service-query), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	keep, err := filepath.Abs(*workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(keep, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(keep, wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	host, err := fingerprint(root, dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: host fingerprint: %v\n", err)
		return 1
	}
	cfg := runConfig{
		workload: wl.name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nodeBin: *nodeBin, dir: dir, keepDir: keep, source: host.SourceSHA,
	}
	steal0, total0, err := cpuTimes()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if steal1, total1, err := cpuTimes(); err == nil && total1 > total0 {
		host.StealPct = float64(steal1-steal0) / float64(total1-total0) * 100
	}
	if cfg.trace && out.spans != nil {
		path := filepath.Join(keep, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, cfg.seed))
		if err := out.spans.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		out.notef("spans written to %s", path)
	}
	res, err := finish(cfg, out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	printReport(stdout, cfg, host, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// finish builds the result line: every end-to-end metric (untraced) or
// every per-layer metric (traced), each present and finite.
func finish(cfg runConfig, out *outcome) (*jsonResult, error) {
	defs, vals := endToEnd, out.e2e
	if cfg.trace {
		defs, vals = perLayer, out.layers
	}
	res := &jsonResult{
		Correct:   out.correct(),
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !cfg.trace && (!ok || v <= 0) {
			missing = append(missing, d.name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("end-to-end metrics not measured: %v", missing)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operations attempted")
	}
	return res, nil
}

func printReport(w io.Writer, cfg runConfig, host hostInfo, out *outcome) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(w, "host %s\n", hj)
	for _, m := range out.named {
		fmt.Fprintf(w, "  %-22s %14s %-6s %s\n", m.name, fmtFloat(m.value), m.unit, m.note)
	}
	if cfg.trace {
		fmt.Fprintln(w, "per-layer (value, unit, end-to-end metric it should move):")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-26s %14s %-5s -> %s\n", d.name, fmtFloat(out.layers[d.name]), d.unit, movesWhat[d.name])
		}
	} else {
		fmt.Fprintln(w, "end-to-end:")
		for _, d := range endToEnd {
			fmt.Fprintf(w, "  %-22s %14s %s\n", d.name, fmtFloat(out.e2e[d.name]), d.unit)
		}
	}
	for _, c := range out.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", status, c.name, c.detail)
	}
	for _, n := range out.notes {
		fmt.Fprintf(w, "  note %s\n", n)
	}
	fmt.Fprintf(w, "  ops attempted=%d failed=%d correct=%v\n", out.attempted, out.failed, out.correct())
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
