package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"vmr2l/internal/client"
	"vmr2l/internal/coord"
	"vmr2l/internal/serve"
	"vmr2l/internal/service"
)

// perLayer are the metrics of single layers, prefixed by the module they
// measure. A traced run reports all of them on every workload: a kernel or
// codec the workload itself bypasses is still timed at the workload's input
// size, so that "no change predicted" has a number to hold against.
var perLayer = []metricDef{
	{Name: "client.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "client.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "client.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.proxy_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.proxied_per_job", Unit: "count", Better: "lower"},
	{Name: "coord.snapshot_all_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "service.create_session_ms", Unit: "ms", Better: "lower"},
	{Name: "service.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "service.events_ms", Unit: "ms", Better: "lower"},
	{Name: "service.snapshot_get_ms", Unit: "ms", Better: "lower"},
	{Name: "service.snapshot_put_ms", Unit: "ms", Better: "lower"},
	{Name: "service.shed_total", Unit: "count", Better: "lower"},
	{Name: "service.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.waves_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.mean_wave_rows", Unit: "count", Better: "higher"},
	{Name: "serve.max_wave_rows", Unit: "count", Better: "higher"},
	{Name: "serve.incr_rows_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.incr_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.incr_fallbacks_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.submit_overhead_us", Unit: "us", Better: "lower"},
	{Name: "policy.forward_full_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.forward_incr_ms", Unit: "ms", Better: "lower"},
	{Name: "policy.forward_wave_ms_per_row", Unit: "ms", Better: "lower"},
	{Name: "policy.forward_mflop", Unit: "Mflop", Better: "lower"},
	{Name: "tensor.linear_f64_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.linear_q8_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.attention_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.update_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.update_renorm_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.step_us", Unit: "us", Better: "lower"},
	{Name: "sim.mask_us", Unit: "us", Better: "lower"},
	{Name: "cluster.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.extract_sub_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.repair_kept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.solve_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.advance_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.events_per_job", Unit: "count", Better: "higher"},
	{Name: "trace.read_mapping_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.write_mapping_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.mapping_mb", Unit: "MB", Better: "lower"},
	{Name: "go.gc_cycles_per_job", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.order_violations", Unit: "count", Better: "lower"},
}

// counters are the program's own counters, read at the layer boundaries the
// harness can reach: every replica's scheduler and /v2/stats, and the
// coordinator's fleet accounting. Per-job figures are deltas over the
// measured phase.
type counters struct {
	serve serve.Stats // summed over replicas; MaxWave is the maximum
	shed  uint64
	fleet coord.FleetStats
}

func (r *runner) readCounters(ctx context.Context) (counters, error) {
	var c counters
	for _, n := range r.st.nodes {
		s := n.sched.Stats()
		c.serve.Waves += s.Waves
		c.serve.Rows += s.Rows
		c.serve.IncrRows += s.IncrRows
		c.serve.IncrHits += s.IncrHits
		c.serve.IncrMisses += s.IncrMisses
		c.serve.IncrFallbacks += s.IncrFallbacks
		c.serve.MaxWave = max(c.serve.MaxWave, s.MaxWave)
		var ss service.ServerStats
		body, err := httpDo(ctx, r.st.direct, http.MethodGet, n.url+"/v2/stats", nil)
		if err == nil {
			err = json.Unmarshal(body, &ss)
		}
		if err != nil {
			return c, fmt.Errorf("read /v2/stats of %s: %w", n.name, err)
		}
		c.shed += ss.Shed
	}
	c.fleet = r.st.co.Fleet().Stats
	return c, nil
}

// httpDo is one harness-side HTTP call outside the client library (the
// endpoints it uses — stats, snapshots — have no client method).
func httpDo(ctx context.Context, hc *http.Client, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, nil
}

// probeReps is the number of paired calls behind each probe figure.
const probeReps = 20

// probes times the API calls a workload's jobs may not make, against the
// live stack after the measured phase: session create, status through the
// coordinator against status direct, an events post, snapshot get and put,
// and a SnapshotAll. Each call is one span.
type probes struct {
	createMS, eventsMS, proxyOverheadMS float64
	snapGetMS, snapPutMS, snapAllMS     float64
	snapshotMB                          float64
}

func (r *runner) probe(ctx context.Context) (probes, error) {
	var p probes
	cl := r.clients[0].cl
	timed := func(name string, fn func() error) (float64, error) {
		t := time.Now()
		err := fn()
		end := time.Now()
		r.rec.add(0, probeJob, "probe "+name, t, end)
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		return ms(end.Sub(t)), nil
	}
	var (
		sess *client.Session
		err  error
	)
	const id = "probe"
	if p.createMS, err = timed("create_session", func() error {
		sess, err = createSession(ctx, cl, id, r.inputs[0].json)
		return err
	}); err != nil {
		return p, err
	}
	owner, _ := r.st.co.Owner(id)
	own := r.st.nodeByName(owner)
	if own == nil {
		return p, fmt.Errorf("probe: session owner %q is no replica", owner)
	}
	var other *node
	for _, n := range r.st.nodes {
		if n != own {
			other = n
		}
	}

	var via, direct []float64
	for i := 0; i < probeReps; i++ {
		v, err := timed("status via coord", func() error {
			_, err := httpDo(ctx, r.st.httpc, http.MethodGet, r.st.coURL+"/v2/clusters/"+id, nil)
			return err
		})
		if err != nil {
			return p, err
		}
		d, err := timed("status direct", func() error {
			_, err := httpDo(ctx, r.st.httpc, http.MethodGet, own.url+"/v2/clusters/"+id, nil)
			return err
		})
		if err != nil {
			return p, err
		}
		via, direct = append(via, v), append(direct, d)
	}
	p.proxyOverheadMS = median(via) - median(direct)

	evs := service.EventsRequest{AdvanceMinutes: 1, Events: churnEvents(r.evRng, len(r.inputs[0].c.VMs))}
	if p.eventsMS, err = timed("events", func() error {
		_, err := sess.Apply(ctx, evs)
		return err
	}); err != nil {
		return p, err
	}
	if p.snapAllMS, err = timed("snapshot_all", func() error {
		r.st.co.SnapshotAll()
		return nil
	}); err != nil {
		return p, err
	}
	var blob []byte
	if p.snapGetMS, err = timed("snapshot_get", func() error {
		blob, err = httpDo(ctx, r.st.httpc, http.MethodGet, own.url+"/v2/clusters/"+id+"/snapshot", nil)
		return err
	}); err != nil {
		return p, err
	}
	p.snapshotMB = float64(len(blob)) / (1 << 20)
	// Restoring onto the other replica is what a re-home does.
	if p.snapPutMS, err = timed("snapshot_put", func() error {
		_, err := httpDo(ctx, r.st.httpc, http.MethodPut, other.url+"/v2/clusters/"+id+"/snapshot", blob)
		return err
	}); err != nil {
		return p, err
	}
	if err := sess.Close(ctx); err != nil {
		return p, fmt.Errorf("probe: close session: %w", err)
	}
	return p, nil
}

// Span job ids of the harness's own work, outside any measured job.
const (
	probeJob  = -1
	shadowJob = -2
)

// reconcileLo and reconcileHi bound the shadow breakdown's sum as a share of
// the solve time the service reported.
const (
	reconcileLo = 0.75
	reconcileHi = 1.25
)

// layerReport fills the per-layer metrics and the two reconciliation tables
// of a traced run, and fails the run when the shadow breakdown does not add
// up to the solve time the service reported. A replay that misses the band
// is repeated once before the run is failed: a burst of neighbour noise
// during a two-sample figure can move the sum that far.
func (r *runner) layerReport(ctx context.Context, res *result, ph *phase, before, after counters, raw map[string]float64) error {
	pr, err := r.probe(ctx)
	if err != nil {
		return err
	}
	var refPlan []service.PlanMigration
	for i := range ph.jobs {
		if p := ph.jobs[i].plan(); len(p) > len(refPlan) {
			refPlan = p
		}
	}
	var (
		m     map[string]float64
		ratio float64
	)
	for try := 0; try < 2; try++ {
		if m, res.Tables, ratio, err = r.layerFigures(ctx, res.Samples, ph, before, after, raw, pr, refPlan); err != nil {
			return err
		}
		if ratio >= reconcileLo && ratio <= reconcileHi {
			break
		}
	}
	if ratio < reconcileLo || ratio > reconcileHi {
		res.Violations = append(res.Violations, fmt.Sprintf("shadow breakdown is %.2f x service.solve_ms, outside %.2f-%.2f, twice", ratio, reconcileLo, reconcileHi))
		res.Correct = false
	}
	res.PerLayer = map[string]value{}
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		res.PerLayer[def.Name] = value{v, def.Unit}
	}
	return nil
}

// layerFigures runs one shadow replay and combines it with the probes, the
// counters and the measured jobs into the per-layer figures, the two tables,
// and the shadow sum as a share of service.solve_ms.
func (r *runner) layerFigures(ctx context.Context, samples int, ph *phase, before, after counters, raw map[string]float64, pr probes, refPlan []service.PlanMigration) (map[string]float64, string, float64, error) {
	w := r.w
	sh, replayFactor, err := r.replay(ctx, refPlan)
	if err != nil {
		return nil, "", 0, err
	}
	// The replay runs after the measured phase; if the machine's speed moved
	// in between, the two are compared at their undisturbed speeds.
	drift := replayFactor / ph.factor

	// Per-job figures from the measured jobs and their spans.
	var (
		tracedLat, plainLat, submit, solve, events, create, closing, snapAll []float64
		steps, kept, preRepair, eventsApplied, violations                    int
	)
	for i := range ph.jobs {
		j := &ph.jobs[i]
		if j.reason != "" {
			continue
		}
		if j.traced {
			tracedLat = append(tracedLat, j.latMS)
		} else {
			plainLat = append(plainLat, j.latMS)
		}
		rs := j.status.Result
		submit, solve = append(submit, j.submitMS), append(solve, rs.ElapsedMS)
		steps += rs.Steps
		if rs.Repair != nil {
			kept += rs.Repair.Valid + rs.Repair.Repaired
			preRepair += rs.Repair.Valid + rs.Repair.Repaired + rs.Repair.Dropped
		}
		switch w.kind {
		case jobChurn:
			events = append(events, j.eventsMS)
			eventsApplied += j.eventsApplied
			// The events reached the session before the solve ended if the
			// solve's earliest possible end is after the events response.
			if !j.start.Add(time.Duration(rs.ElapsedMS * float64(time.Millisecond))).After(j.eventsDone) {
				violations++
			}
		case jobUpload:
			create, closing = append(create, j.createMS), append(closing, j.closeMS)
		}
		if j.snapshotMS > 0 {
			snapAll = append(snapAll, j.snapshotMS)
		}
	}
	polls, decode, jobSelf := spanFigures(r.rec.snapshot())
	jobs := float64(len(ph.jobs))
	d := func(a, b uint64) float64 { return float64(a - b) }
	sv0, sv1 := before.serve, after.serve
	rows, waves := d(sv1.Rows, sv0.Rows), d(sv1.Waves, sv0.Waves)
	incrRows := d(sv1.IncrRows, sv0.IncrRows)
	hits := d(sv1.IncrHits, sv0.IncrHits)
	misses, fallbacks := d(sv1.IncrMisses, sv0.IncrMisses), d(sv1.IncrFallbacks, sv0.IncrFallbacks)

	m := sh
	m["client.submit_ms"] = median(submit)
	m["client.polls_per_job"] = polls
	m["client.decode_ms"] = decode
	m["coord.proxy_overhead_ms"] = pr.proxyOverheadMS
	m["coord.proxied_per_job"] = d(after.fleet.Proxied, before.fleet.Proxied) / jobs
	m["coord.snapshot_all_ms"] = pr.snapAllMS
	if len(snapAll) > 0 {
		m["coord.snapshot_all_ms"] = median(snapAll)
	}
	m["coord.snapshot_mb"] = pr.snapshotMB
	m["service.create_session_ms"] = pr.createMS
	if len(create) > 0 {
		m["service.create_session_ms"] = median(create)
	}
	m["service.solve_ms"] = median(solve)
	m["service.events_ms"] = pr.eventsMS
	if len(events) > 0 {
		m["service.events_ms"] = median(events)
	}
	m["service.snapshot_get_ms"] = pr.snapGetMS
	m["service.snapshot_put_ms"] = pr.snapPutMS
	m["service.shed_total"] = d(after.shed, before.shed)
	m["serve.waves_per_job"] = waves / jobs
	m["serve.mean_wave_rows"] = rows / max(waves, 1)
	m["serve.max_wave_rows"] = float64(sv1.MaxWave)
	m["serve.incr_rows_per_job"] = incrRows / jobs
	m["serve.incr_hit_ratio"] = hits / max(incrRows, 1)
	m["serve.incr_fallbacks_per_job"] = fallbacks / jobs
	m["solver.repair_kept_ratio"] = float64(kept) / float64(max(preRepair, 1))
	m["sched.events_per_job"] = float64(eventsApplied) / jobs
	m["go.gc_cycles_per_job"] = float64(ph.gcCycles) / jobs
	m["go.gc_pause_ms_per_job"] = ms(ph.gcPause) / jobs
	m["bench.trace_overhead_ratio"] = percentile(tracedLat, 50) / percentile(plainLat, 50)
	m["bench.order_violations"] = float64(violations)

	// Stage table: the blocking stages of a job, at their medians, against
	// the median job. What they do not explain is the residual: queue wait,
	// poll overshoot, the per-job snapshot, everything unattributed.
	p50 := raw["job_p50_ms"]
	stages := []struct {
		name string
		ms   float64
	}{
		{"create session (client+coord+service)", median(create)},
		{"submit (client+coord+service)", m["client.submit_ms"]},
		{"solve (service elapsed_ms)", m["service.solve_ms"]},
		{"repair (shadow solver.repair_ms)", m["solver.repair_ms"]},
		{"decode (client)", m["client.decode_ms"]},
		{"close session (client+coord+service)", median(closing)},
	}
	var tb strings.Builder
	fmt.Fprintf(&tb, "stage table (medians, ms) — sums to job_p50_ms %.2f over %d samples\n", p50, samples)
	attributed := 0.0
	for _, s := range stages {
		if s.ms != s.ms { // NaN: the workload has no such stage
			continue
		}
		attributed += s.ms
		fmt.Fprintf(&tb, "  %-40s %10.2f  %5.1f%%\n", s.name, s.ms, 100*s.ms/p50)
	}
	m["service.residual_ms"] = p50 - attributed
	fmt.Fprintf(&tb, "  %-40s %10.2f  %5.1f%%\n", "residual (queue, poll overshoot, other)", p50-attributed, 100*(p50-attributed)/p50)
	fmt.Fprintf(&tb, "  self time of the job span (no HTTP call in flight: poll sleeps, client code) %.2f ms, %.1f polls\n", jobSelf, polls)

	// Shadow breakdown of the solve: what the counters say a job did, priced
	// by the in-process figures. A row served through a step cache costs one
	// incremental or one full forward; a row on the batched path waits for
	// every row in flight on its scheduler — the rows of the jobs running at
	// once there, whether they share a wave or take turns — and the clients
	// of a concurrent workload all run on one replica.
	stepsPerJob := float64(steps) / float64(len(solve))
	batchedRows := (rows - incrRows) / jobs
	parts := []struct {
		name string
		ms   float64
	}{
		{fmt.Sprintf("policy incremental forwards  %.1f x %.3f", hits/jobs, m["policy.forward_incr_ms"]), hits / jobs * m["policy.forward_incr_ms"]},
		{fmt.Sprintf("policy full forwards, cold   %.1f x %.3f", misses/jobs, m["policy.forward_full_ms"]), misses / jobs * m["policy.forward_full_ms"]},
		{fmt.Sprintf("policy full forwards, warm   %.1f x %.3f", fallbacks/jobs, m[warmForwardMS]), fallbacks / jobs * m[warmForwardMS]},
		{fmt.Sprintf("policy wave rows   %.1f x %.3f x %d in flight", batchedRows, m["policy.forward_wave_ms_per_row"], w.clients),
			batchedRows * m["policy.forward_wave_ms_per_row"] * float64(w.clients)},
		{fmt.Sprintf("sim step                     %.1f x %.4f", stepsPerJob, m["sim.step_us"]/1000), stepsPerJob * m["sim.step_us"] / 1000},
		{fmt.Sprintf("serve hand-off               %.1f x %.4f", rows/jobs, m["serve.submit_overhead_us"]/1000), rows / jobs * m["serve.submit_overhead_us"] / 1000},
	}
	if w.shards > 1 {
		k := float64(w.shards)
		parts = append(parts, []struct {
			name string
			ms   float64
		}{
			{"shard partition", m["shard.partition_ms"]},
			{fmt.Sprintf("cluster extract_sub          %.0f x %.3f", k, m["cluster.extract_sub_ms"]), k * m["cluster.extract_sub_ms"]},
			{"merge repair on the full mapping", m["solver.repair_ms"]},
		}...)
	}
	fmt.Fprintf(&tb, "shadow breakdown of service.solve_ms %.2f (ms; of which sim update/extract inside the forwards: %.3f / %.3f per call)\n",
		m["service.solve_ms"], m["sim.update_ms"], m["sim.extract_ms"])
	sum := 0.0
	for _, p := range parts {
		sum += p.ms
		fmt.Fprintf(&tb, "  %-58s %10.2f\n", p.name, p.ms)
	}
	ratio := sum / drift / m["service.solve_ms"]
	fmt.Fprintf(&tb, "  %-58s %10.2f\n", "unattributed", m["service.solve_ms"]-sum)
	fmt.Fprintf(&tb, "  shadow sum %.2f = %.2f x service.solve_ms at equal machine speed (the replay ran %.2fx as disturbed as the jobs); must be within %.2f-%.2f\n",
		sum, ratio, drift, reconcileLo, reconcileHi)
	fmt.Fprintf(&tb, "  cluster.clone_ms %.3f is paid at submit, outside the solve\n", m["cluster.clone_ms"])
	return m, tb.String(), ratio, nil
}

// spanFigures reads the client-side figures off the spans of the traced
// jobs: status polls per job, the decode of the poll that carried the plan
// (the last one of each job), and the job span's self time — what of a job
// no HTTP call or decode covers: the poll interval's sleeps and client code.
func spanFigures(spans []span) (pollsPerJob, decodeMS, jobSelfMS float64) {
	const poll = "GET /v2/jobs/{id}"
	self := selfTimes(spans)
	polls, total := map[int]int{}, 0
	last := map[int]float64{}
	var jobSelf []float64
	for _, s := range spans {
		switch {
		case s.Job < 0:
		case s.Name == "job":
			jobSelf = append(jobSelf, self[s.ID])
		case s.Name == "http "+poll:
			polls[s.Job]++
			total++
		case s.Name == "decode "+poll:
			last[s.Job] = s.dur() // spans are in time order per job
		}
	}
	if len(polls) == 0 {
		return 0, 0, 0
	}
	var dec []float64
	for _, d := range last {
		dec = append(dec, d)
	}
	return float64(total) / float64(len(polls)), median(dec), median(jobSelf)
}
