package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vmr2l/internal/policy"
	"vmr2l/internal/serve"
)

// tinyWorkload drives the whole path — client, coordinator, two replicas,
// scheduler, model, repair — on a 6-PM cluster. It is not one of the named
// workloads and carries no number.
func tinyWorkload(kind jobKind) *workload {
	return &workload{
		name: "tiny-smoke", profile: "tiny", mappings: 2, extractor: policy.NoAttention, incremental: serve.IncrementalAuto,
		kind: kind, sessions: 2, clients: 1, mnl: 4, jobs: 3, warmup: 1, snapshotEvery: 2, waveRows: 1,
	}
}

func TestSmokeFullPath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, kind := range []jobKind{jobStatic, jobChurn, jobUpload} {
		w := tinyWorkload(kind)
		if kind == jobUpload {
			w.sessions, w.shards, w.waveRows = 0, 2, 2
		}
		start := time.Now()
		res, err := runWorkload(ctx, w, 1, nominalSeconds, "")
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if took := time.Since(start); took > 3*time.Second {
			t.Errorf("kind %d: smoke run took %v, want < 3 s", kind, took)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != 3 {
			t.Errorf("kind %d: correct=%v failed=%d attempted=%d violations=%v", kind, res.Correct, res.Failed, res.Attempted, res.Violations)
		}
		for _, d := range endToEnd {
			v, ok := res.EndToEnd[d.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("kind %d: end-to-end metric %s = %v (present %v), want a positive number", kind, d.Name, v.Value, ok)
			}
		}
	}
}

func TestSmokeTracedRun(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := t.TempDir()
	w := tinyWorkload(jobChurn)
	w.jobs = 12 // the traced run traces every other pair of jobs
	res, err := runWorkload(ctx, w, 1, nominalSeconds, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Microsecond-scale solves on six PMs need not reconcile; the named
	// workloads must. Everything else has to hold.
	if res.Failed != 0 {
		t.Errorf("failed jobs: %v", res.Violations)
	}
	for _, d := range perLayer {
		v, ok := res.PerLayer[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer metric %s = %v (present %v), want a finite number", d.Name, v.Value, ok)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, w.name+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range file.Spans {
		names[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %d %q ends before it starts", s.ID, s.Name)
		}
	}
	for _, want := range []string{"job", "http POST /v2/clusters/{id}/jobs", "decode GET /v2/jobs/{id}", "probe snapshot_put", "shadow policy.InferBatch"} {
		if !names[want] {
			t.Errorf("span file has no %q span", want)
		}
	}
}

// TestBenchmarkJSONAgrees pins the contract file at the repository root to
// the names, units, directions and bounds this program reports.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, job counts are sized for %d", spec.RunSeconds, nominalSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json differs from %v", kind, d.Name, d.Bound)
			}
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEnd, true)
	compare("per-layer", spec.PerLayer, perLayer, false)
}
