package main

import (
	"math"
	"testing"
	"time"
)

func TestDisturbanceFactor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	c := &calibrator{}
	// 100 quiet samples of 1.0 ms in [0,100), then 50 disturbed ones of 1.5 ms.
	for i := 0; i < 100; i++ {
		c.samples = append(c.samples, calibSample{at(i), 1.0})
	}
	for i := 100; i < 150; i++ {
		c.samples = append(c.samples, calibSample{at(i), 1.5})
	}
	if q := c.quiet(); q != 1.0 {
		t.Fatalf("quiet loop time = %v, want 1.0", q)
	}
	for _, tc := range []struct {
		from, to int
		want     float64
	}{
		{0, 99, 1.0},    // an undisturbed window changes nothing
		{100, 149, 1.5}, // a disturbed one is scaled by how much slower the loop ran
		{50, 149, 1.25}, // a mixed one by the mean
		{200, 300, 1.0}, // no samples: no correction
	} {
		if got := c.factor(at(tc.from), at(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("factor(%d..%d) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestUndisturbedScalesTimingsOnly(t *testing.T) {
	w := &workload{mnl: 4}
	ph := &phase{passMB: []float64{10, 12, 8}, passWall: []float64{2, 2, 2}, passCPU: []float64{1, 1, 1}}
	for i := 0; i < 3; i++ {
		ph.jobs = append(ph.jobs, jobResult{latMS: 100 * float64(i+1)})
	}
	raw, lat := figures(w, ph, []float64{3, 5, 4})
	if raw["setup_s"] != 4 || raw["job_p50_ms"] != 200 || raw["jobs_per_s"] != 0.5 || raw["cpu_ms_per_job"] != 1000 || raw["alloc_mb_per_job"] != 10 {
		t.Errorf("raw figures wrong: %v", raw)
	}
	if len(lat) != 3 {
		t.Errorf("%d latencies, want 3", len(lat))
	}
	// The measured phase ran on a machine twice as slow as when it is quiet.
	cal := undisturbed(raw, 2, 3.5)
	if cal["setup_s"] != 3.5 || cal["job_p50_ms"] != 100 || cal["job_p90_ms"] != 150 || cal["jobs_per_s"] != 1 || cal["cpu_ms_per_job"] != 500 {
		t.Errorf("calibrated timings wrong: %v", cal)
	}
	if cal["alloc_mb_per_job"] != raw["alloc_mb_per_job"] || cal["plan_fill_ratio"] != raw["plan_fill_ratio"] {
		t.Errorf("a count changed under calibration: %v vs %v", cal, raw)
	}
	if len(cal) != len(raw) {
		t.Errorf("%d calibrated figures for %d raw ones", len(cal), len(raw))
	}
}
