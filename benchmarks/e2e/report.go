package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"vmr2l/internal/service"
)

// setupReps is how often an untraced run sets up: set-up time is short and
// allocation-heavy, and the first one in a process is the slowest, so one
// sample is noisy; the run reports the median.
const setupReps = 4

// metricDef names one metric. Bound is the share of the reference median by
// which an end-to-end metric may worsen before a change counts as a
// regression; it must agree with BENCHMARK.json (a test checks that).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system would see. job_fail_ratio is
// printed with them but has no entry in BENCHMARK.json, whose metrics must
// never be zero; there it is the failed/attempted pair of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"plan_steps_per_s", "1/s", "higher", 0.25},
	{"plan_fill_ratio", "ratio", "higher", 0.03},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"alloc_mb_per_job", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run reports. The driver reads only the
// last line (resultLine); suite and A/A parents read the whole struct.
type result struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Traced     bool     `json:"traced"`
	Env        envBlock `json:"env"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailRatio  float64  `json:"job_fail_ratio"`
	Samples    int      `json:"latency_samples"`
	MinJobMS   float64  `json:"min_job_ms"`
	PlanDigest string   `json:"plan_digest"`
	Violations []string `json:"violations,omitempty"`
	// Raw are the timings as the clock read them; Disturbance is the factor
	// the measured phase's reported figures were divided by (see calib.go),
	// and QuietLoopMS the reference loop time the factor is relative to.
	Raw         map[string]float64 `json:"raw"`
	Disturbance float64            `json:"disturbance"`
	QuietLoopMS float64            `json:"quiet_loop_ms"`
	EndToEnd    map[string]value   `json:"end_to_end,omitempty"`
	PerLayer    map[string]value   `json:"per_layer,omitempty"`
	Tables      string             `json:"-"` // reconciliation tables of a traced run
}

// resultLine is the contract with the benchmark driver: the last line of
// standard output, with exactly these keys.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload performs one run of one workload in this process. A non-empty
// traceDir makes it the traced run and names where the span file goes.
func runWorkload(ctx context.Context, w *workload, seed int64, seconds int, traceDir string) (*result, error) {
	traced := traceDir != ""
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Env: readEnv()}
	inputs, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	reps := setupReps
	if traced {
		rec, reps = newRecorder(), 1
	}
	// A burst of the reference loop before the first set-up and after each
	// one gives every set-up its own window of calibration samples.
	type window struct{ from, to time.Time }
	var (
		r        *runner
		warm     []jobResult
		setupsS  []float64
		setupWin []window
		cal      = &calibrator{}
	)
	for i := 0; i < reps; i++ {
		if r != nil {
			r.stop()
			r = nil
			// Collect the torn-down stack now: garbage of one set-up still
			// lying around while the next allocates would make the peak
			// memory figure a matter of collector timing.
			runtime.GC()
		}
		from := time.Now()
		if i == 0 {
			cal.burst()
		}
		t0 := time.Now()
		if r, warm, err = setup(ctx, w, seed, inputs, rec, cal); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
		cal.burst()
		setupWin = append(setupWin, window{from, time.Now()})
	}
	defer r.stop()

	var before, after counters
	if traced {
		if before, err = r.readCounters(ctx); err != nil {
			return nil, err
		}
	}
	ph, err := r.measure(ctx, w.jobsFor(seconds))
	if err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", w.name, err)
	}
	if traced {
		if after, err = r.readCounters(ctx); err != nil {
			return nil, err
		}
	}

	ref := map[int][]service.PlanMigration{}
	r.check(warm, ref)
	for i := range warm {
		if warm[i].reason != "" {
			res.Violations = append(res.Violations, fmt.Sprintf("warm-up job %d: %s", warm[i].idx, warm[i].reason))
		}
	}
	r.check(ph.jobs, ref)

	var plans [][]service.PlanMigration
	for i := range ph.jobs {
		j := &ph.jobs[i]
		res.Attempted++
		plans = append(plans, j.plan())
		if j.reason != "" {
			res.Failed++
			res.Violations = append(res.Violations, fmt.Sprintf("job %d: %s", j.idx, j.reason))
		}
	}
	res.PlanDigest = digestPlans(plans)
	res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	res.Correct = len(res.Violations) == 0

	// Every timing is reported at the machine's undisturbed speed (calib.go):
	// a set-up by the factor of its own window, the measured phase by the
	// factor of the phase.
	raw, lat := figures(w, ph, setupsS)
	scaled := make([]float64, len(setupsS))
	for i, win := range setupWin {
		scaled[i] = setupsS[i] / cal.factor(win.from, win.to)
	}
	e2e := undisturbed(raw, ph.factor, median(scaled))
	res.Samples, res.MinJobMS = len(lat), percentile(lat, 0)
	res.Raw, res.Disturbance, res.QuietLoopMS = raw, ph.factor, cal.quiet()
	if !traced {
		// The traced run's extra work (probes, shadow replay) would inflate
		// the high-water mark; only the untraced run reports it.
		e2e["peak_rss_mb"] = peakRSSMB()
		res.EndToEnd = map[string]value{}
		for _, d := range endToEnd {
			res.EndToEnd[d.Name] = value{e2e[d.Name], d.Unit}
		}
		return res, nil
	}
	if err := r.layerReport(ctx, res, ph, before, after, raw); err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.name, err)
	}
	path := filepath.Join(traceDir, w.name+".trace.json")
	if err := writeTrace(path, w, res.Env, rec.snapshot()); err != nil {
		return nil, err
	}
	res.Tables += fmt.Sprintf("spans written to %s\n", path)
	return res, nil
}

// figures computes the end-to-end figures of a measured phase as the clock
// read them, and returns with them the latencies of the jobs that passed
// their checks.
func figures(w *workload, ph *phase, setupsS []float64) (map[string]float64, []float64) {
	perPass := len(ph.jobs) / passes
	var (
		lat, jobsPerS, stepsPerS, cpuPerJob, mbPerJob []float64
		planSteps                                     int
	)
	for p := 0; p < passes; p++ {
		steps := 0
		for _, j := range ph.jobs[p*perPass : (p+1)*perPass] {
			if j.reason == "" {
				steps += len(j.plan())
				lat = append(lat, j.latMS)
			}
		}
		planSteps += steps
		jobsPerS = append(jobsPerS, float64(perPass)/ph.passWall[p])
		stepsPerS = append(stepsPerS, float64(steps)/ph.passWall[p])
		cpuPerJob = append(cpuPerJob, ph.passCPU[p]*1000/float64(perPass))
		mbPerJob = append(mbPerJob, ph.passMB[p]/float64(perPass))
	}
	return map[string]float64{
		"setup_s":          median(setupsS),
		"job_p50_ms":       percentile(lat, 50),
		"job_p90_ms":       percentile(lat, 90),
		"jobs_per_s":       median(jobsPerS),
		"plan_steps_per_s": median(stepsPerS),
		"plan_fill_ratio":  float64(planSteps) / float64(w.mnl*len(ph.jobs)),
		"cpu_ms_per_job":   median(cpuPerJob),
		"alloc_mb_per_job": median(mbPerJob),
	}, lat
}

// undisturbed puts the raw figures of a measured phase at the machine's
// undisturbed speed: durations are divided by the phase's disturbance factor,
// rates multiplied by it, counts left alone. setupS is the set-up figure,
// already scaled set-up by set-up.
func undisturbed(raw map[string]float64, factor, setupS float64) map[string]float64 {
	out := map[string]float64{"setup_s": setupS}
	for name, v := range raw {
		switch name {
		case "setup_s":
		case "job_p50_ms", "job_p90_ms", "cpu_ms_per_job":
			out[name] = v / factor
		case "jobs_per_s", "plan_steps_per_s":
			out[name] = v * factor
		default:
			out[name] = v
		}
	}
	return out
}

// print writes the human-readable report, then the full result for a parent
// process, then — last — the driver's result line.
func (res *result) print(out io.Writer) {
	fmt.Fprintf(out, "== %s  seed %d  traced %v\n", res.Workload, res.Seed, res.Traced)
	fmt.Fprintf(out, "env: %s GOMAXPROCS=%d nproc=%d cpu=%q\n", res.Env.GoVersion, res.Env.GoMaxProcs, res.Env.NumCPU, res.Env.CPUModel)
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed}
	if res.Traced {
		line.Metrics = res.PerLayer
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.Name, res.PerLayer[d.Name].Value, d.Unit)
		}
		fmt.Fprint(out, res.Tables)
	} else {
		line.Metrics = res.EndToEnd
		for _, d := range endToEnd {
			fmt.Fprintf(out, "  %-20s %12.4f %-6s", d.Name, res.EndToEnd[d.Name].Value, d.Unit)
			if rawV, ok := res.Raw[d.Name]; ok && rawV != res.EndToEnd[d.Name].Value {
				fmt.Fprintf(out, " raw %12.4f", rawV)
			} else {
				fmt.Fprintf(out, " %16s", "")
			}
			fmt.Fprintf(out, "  (%s is better, bound %.0f%%)\n", d.Better, d.Bound*100)
		}
		fmt.Fprintf(out, "  timings are divided by the measured phase's disturbance factor %.3f (reference loop, quiet: %.3f ms)\n", res.Disturbance, res.QuietLoopMS)
	}
	fmt.Fprintf(out, "  %-32s %14.4f ratio  (%d failed of %d attempted; must be 0)\n", "job_fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	fmt.Fprintf(out, "  latency samples %d, shortest job %.1f ms (raw), plan_digest %s\n", res.Samples, res.MinJobMS, res.PlanDigest)
	for _, v := range res.Violations {
		fmt.Fprintf(out, "  VIOLATION %s\n", v)
	}
	full, _ := json.Marshal(res) // plain data; cannot fail
	fmt.Fprintf(out, "%s%s\n", resultPrefix, full)
	last, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", last)
}

// resultPrefix marks the line a suite or A/A parent parses.
const resultPrefix = "RESULT "
