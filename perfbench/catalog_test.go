package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
	for _, d := range perLayer {
		if movesWhat[d.name] == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", d.name)
		}
	}
}

func TestFinishRequiresEveryEndToEndMetric(t *testing.T) {
	out := newOutcome()
	out.attempted = 1
	for _, d := range endToEnd {
		out.e2e[d.name] = 1.5
	}
	res, err := finish(runConfig{}, out)
	if err != nil || len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("finish = %+v, %v", res, err)
	}
	delete(out.e2e, endToEnd[len(endToEnd)-1].name)
	if _, err := finish(runConfig{}, out); err == nil {
		t.Error("finish accepted a missing end-to-end metric")
	}
	// A traced run reports every per-layer metric, unused layers as 0.
	res, err = finish(runConfig{trace: true}, out)
	if err != nil || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced finish = %+v, %v", res, err)
	}
	out.check("x", false, "wrong answer")
	if res, _ := finish(runConfig{trace: true}, out); res.Correct {
		t.Error("a failed check left the run correct")
	}
}
