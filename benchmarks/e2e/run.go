package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"vmr2l/internal/client"
	"vmr2l/internal/policy"
	"vmr2l/internal/service"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// jobLimitMS is the paper's limit on a rescheduling answer: a plan older
// than five seconds has lost its value, so a slower job counts as failed.
const jobLimitMS = 5000

// jobResult is what the harness keeps of one job. Timing fields are taken
// around the harness's own calls; correctness is checked after the measured
// phase so that the checks cost no measured time.
type jobResult struct {
	idx     int
	session int // index into runner.sessions, -1 for upload jobs
	traced  bool
	start   time.Time
	latMS   float64

	submitMS, eventsMS, createMS, closeMS float64
	snapshotMS                            float64 // SnapshotAll after this job, 0 if none
	eventsDone                            time.Time
	eventsApplied                         int

	status *service.JobStatus
	err    error
	reason string // why the job counts as failed; "" = ok
}

func (j *jobResult) plan() []service.PlanMigration {
	if j.status == nil || j.status.Result == nil {
		return nil
	}
	return j.status.Result.Plan
}

// benchClient is one closed-loop client: its own client.Client, and in a
// traced run the transport wrapper that records its HTTP calls.
type benchClient struct {
	cl *client.Client
	tt *tracedTransport
}

// runner holds one set-up of a workload: the stack, the harness's own copy
// of the inputs, and the sessions the jobs run on.
type runner struct {
	w    *workload
	st   *stack
	rec  *recorder // nil when tracing is off
	seed int64

	inputs []input

	clients  []*benchClient
	sessions []*client.Session
	evRng    *rand.Rand
	nextJob  int

	// pace runs the reference loop between client 0's jobs during the
	// measured phase; nil outside it.
	cal  *calibrator
	pace *pacer
}

// setup builds everything a measured phase needs and runs the fixed warm-up:
// model build (and quantisation), fleet start, session upload, warm-up jobs.
// Its duration is the setup_s sample.
func setup(ctx context.Context, w *workload, seed int64, inputs []input, rec *recorder, cal *calibrator) (*runner, []jobResult, error) {
	r := &runner{w: w, rec: rec, cal: cal, seed: seed, inputs: inputs, evRng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	var err error
	if r.st, err = startStack(w); err != nil {
		return nil, nil, err
	}
	for c := 0; c < w.clients; c++ {
		bc := &benchClient{}
		if rec != nil {
			bc.tt = &tracedTransport{base: r.st.httpc.Transport, rec: rec}
			bc.cl = r.st.newClient(bc.tt)
		} else {
			bc.cl = r.st.newClient(nil)
		}
		r.clients = append(r.clients, bc)
	}
	if err := r.createSessions(ctx); err != nil {
		r.stop()
		return nil, nil, err
	}
	warm, err := r.runJobs(ctx, w.warmup)
	if err != nil {
		r.stop()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, warm, nil
}

func (r *runner) stop() { r.st.stop() }

// input is the mapping of session (or upload job) i.
func (r *runner) input(i int) input { return r.inputs[i%len(r.inputs)] }

// createSessions registers the workload's long-lived sessions. With several
// clients, every session is placed on the replica that owns the first one
// (ids are tried until the ring agrees), so that the clients' rows meet in
// one scheduler and coalesce.
func (r *runner) createSessions(ctx context.Context) error {
	owner := ""
	for try := 0; len(r.sessions) < r.w.sessions; try++ {
		if try > 64 {
			return errors.New("no session id lands on the first session's replica")
		}
		bc := r.clients[len(r.sessions)%len(r.clients)]
		sess, err := createSession(ctx, bc.cl, fmt.Sprintf("s%d", try), r.input(len(r.sessions)).json)
		if err != nil {
			return err
		}
		got, _ := r.st.co.Owner(sess.ID())
		if owner == "" {
			owner = got
		}
		if len(r.clients) > 1 && got != owner {
			if err := sess.Close(ctx); err != nil {
				return fmt.Errorf("drop misplaced session %s: %w", sess.ID(), err)
			}
			continue
		}
		r.sessions = append(r.sessions, sess)
	}
	if len(r.clients) > 1 {
		return r.widestWave(ctx, r.st.nodeByName(owner))
	}
	return nil
}

// widestWave sends the shared replica's scheduler one wave as wide as the
// workload can make it: one row per client. Two closed-loop clients normally
// take turns (a row arrives while the other's wave runs), but now and then —
// a late runner, a collection — both rows are queued at once, and the first
// such wave grows the scheduler's arena for good. Whether that accident fell
// into a run made peak_rss_mb bimodal (137 or 219 MB); a long-lived server is
// certainly past it, so set-up puts the scheduler there. It is the one place
// where the harness reaches around the HTTP API.
func (r *runner) widestWave(ctx context.Context, n *node) error {
	reqs := make([]policy.WaveReq, len(r.clients))
	for i := range reqs {
		env := sim.New(r.input(i).c, sim.DefaultConfig(1))
		reqs[i] = policy.WaveReq{Kind: policy.WaveInfer, Env: env, Rng: rand.New(rand.NewSource(1)), Opts: greedy}
	}
	if _, err := n.sched.SubmitMany(ctx, reqs, nil); err != nil {
		return fmt.Errorf("pre-size the scheduler of %s: %w", n.name, err)
	}
	return nil
}

// runJobs runs n jobs split evenly over the clients, each client a closed
// loop: its next job starts when the previous one has returned. Results come
// back in job order (client 0's jobs, then client 1's).
func (r *runner) runJobs(ctx context.Context, n int) ([]jobResult, error) {
	per := n / len(r.clients)
	out := make([]jobResult, per*len(r.clients))
	base := r.nextJob
	r.nextJob += len(out)
	var wg sync.WaitGroup
	for c, bc := range r.clients {
		wg.Add(1)
		go func(c int, bc *benchClient) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				j := &out[c*per+k]
				j.idx = base + c*per + k
				// Blocks of jobs alternate between traced and untraced, a
				// block covering every mapping, so that both kinds see the
				// same inputs and the same drift.
				j.traced = bc.tt != nil && (k/len(r.inputs))&1 == 1
				r.runJob(ctx, c, bc, j)
			}
		}(c, bc)
	}
	wg.Wait()
	for i := range out {
		if out[i].err != nil && ctx.Err() != nil {
			return out, fmt.Errorf("job %d: %w", out[i].idx, out[i].err)
		}
	}
	return out, nil
}

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// runJob performs one client-observed operation and records its timings.
func (r *runner) runJob(ctx context.Context, c int, bc *benchClient, j *jobResult) {
	w := r.w
	j.session = -1
	var sess *client.Session
	if w.kind != jobUpload {
		// One client alternates over all sessions; several clients own one each.
		j.session = c
		if len(r.clients) == 1 {
			j.session = j.idx % len(r.sessions)
		}
		sess = r.sessions[j.session]
	}
	var evs []service.SessionEvent
	if w.kind == jobChurn {
		evs = churnEvents(r.evRng, len(r.input(j.session).c.VMs))
	}
	if c == 0 && r.pace != nil {
		r.pace.keepUp()
	}
	jobSpan := 0
	j.start = time.Now()
	if j.traced {
		jobSpan = r.rec.reserve(j.idx, "job", j.start)
		bc.tt.job, bc.tt.parent = j.idx, jobSpan
	}
	defer func() {
		end := time.Now()
		j.latMS = ms(end.Sub(j.start))
		if j.traced {
			r.rec.finish(jobSpan, end)
			bc.tt.parent = 0
		}
		if j.err != nil {
			j.reason = j.err.Error()
		}
		if w.snapshotEvery > 0 && (j.idx+1)%w.snapshotEvery == 0 {
			t := time.Now()
			r.st.co.SnapshotAll()
			j.snapshotMS = msSince(t)
		}
	}()

	if w.kind == jobUpload {
		t := time.Now()
		sess, j.err = createSession(ctx, bc.cl, fmt.Sprintf("up%d", j.idx), r.input(j.idx).json)
		j.createMS = msSince(t)
		if j.err != nil {
			return
		}
	}
	t := time.Now()
	id, err := sess.Submit(ctx, w.request())
	j.submitMS = msSince(t)
	if err != nil {
		j.err = err
		return
	}
	if w.kind == jobChurn {
		t := time.Now()
		st, err := sess.Apply(ctx, service.EventsRequest{AdvanceMinutes: 1, Events: evs})
		j.eventsMS, j.eventsDone = msSince(t), time.Now()
		if err != nil {
			j.err = err
			return
		}
		j.eventsApplied = st.Applied.Events
	}
	j.status, j.err = bc.cl.Wait(ctx, id)
	if j.err == nil && w.kind == jobUpload {
		t := time.Now()
		j.err = sess.Close(ctx)
		j.closeMS = msSince(t)
	}
}

// check marks jobs that failed a correctness check. ref maps a session to
// the first plan seen on it: on an unchanging session every job must return
// the identical plan, whatever it was batched with.
func (r *runner) check(jobs []jobResult, ref map[int][]service.PlanMigration) {
	for i := range jobs {
		j := &jobs[i]
		if j.reason == "" {
			j.reason = r.checkJob(j, ref)
		}
	}
}

func (r *runner) checkJob(j *jobResult, ref map[int][]service.PlanMigration) string {
	st := j.status
	switch {
	case st == nil || st.Result == nil:
		return "no result"
	case st.TimedOut:
		return "timed_out"
	case j.latMS > jobLimitMS:
		return fmt.Sprintf("took %.0f ms, over the %d ms limit", j.latMS, jobLimitMS)
	}
	res := st.Result
	plan := res.Plan
	if len(plan) > r.w.mnl {
		return fmt.Sprintf("plan has %d steps, MNL is %d", len(plan), r.w.mnl)
	}
	if res.Repair == nil {
		return "session job without a repair report"
	}
	rp := res.Repair
	if r.w.kind == jobChurn {
		if rp.Valid+rp.Repaired+rp.Dropped != res.Steps {
			return fmt.Sprintf("repair report %d+%d+%d does not partition %d steps", rp.Valid, rp.Repaired, rp.Dropped, res.Steps)
		}
		if len(plan) != rp.Valid+rp.Repaired+rp.Evacuated {
			return fmt.Sprintf("plan has %d steps, repair report kept %d", len(plan), rp.Valid+rp.Repaired+rp.Evacuated)
		}
		for _, m := range plan {
			if pms := len(r.input(j.session).c.PMs); m.VM < 0 || m.FromPM < 0 || m.FromPM >= pms || m.ToPM < 0 || m.ToPM >= pms {
				return fmt.Sprintf("migration %+v out of range", m)
			}
		}
		return ""
	}
	// Unchanging session: the harness's own copy of the mapping is the truth.
	if res.Steps != len(plan) {
		return fmt.Sprintf("steps %d != len(plan) %d on a static session", res.Steps, len(plan))
	}
	migs := toMigrations(plan)
	// An unchanging session is keyed by its index, an upload by its mapping.
	key := j.session
	if r.w.kind == jobUpload {
		key = j.idx % len(r.inputs)
	}
	for i, ck := range solver.ValidatePlan(r.input(key).c, migs) {
		if ck.Status != solver.MigrationValid {
			return fmt.Sprintf("step %d is %s against the harness's mapping", i, ck.Status)
		}
	}
	if first, ok := ref[key]; !ok {
		ref[key] = plan
	} else if !slices.Equal(first, plan) {
		return "plan differs from the first plan on the same session"
	}
	return ""
}

// toMigrations converts a wire plan back to the solver's form.
func toMigrations(plan []service.PlanMigration) []sim.Migration {
	migs := make([]sim.Migration, len(plan))
	for i, m := range plan {
		migs[i] = sim.Migration{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap, Forced: m.Forced}
	}
	return migs
}

// phase is the outcome of the measured part of a run.
type phase struct {
	jobs     []jobResult
	passWall []float64 // seconds
	passCPU  []float64 // seconds
	passMB   []float64 // allocated, MB
	// factor is the phase's disturbance factor (see calib.go).
	factor   float64
	gcCycles uint32
	gcPause  time.Duration
}

// measure runs the measured phase: three equal passes of the job list. It
// starts from a collected heap whose free pages have gone back to the system
// and a reset memory high-water mark, so that neither the jobs' allocation
// figure nor the peak depends on what the repeated set-ups left lying around.
func (r *runner) measure(ctx context.Context, jobs int) (*phase, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := m0
	ph := &phase{}
	r.pace = r.cal.pace()
	for p := 0; p < passes; p++ {
		cpu0, t0 := cpuTime(), time.Now()
		out, err := r.runJobs(ctx, jobs/passes)
		ph.passWall = append(ph.passWall, time.Since(t0).Seconds())
		ph.passCPU = append(ph.passCPU, (cpuTime() - cpu0).Seconds())
		runtime.ReadMemStats(&m1)
		ph.passMB = append(ph.passMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		m0 = m1
		ph.jobs = append(ph.jobs, out...)
		if err != nil {
			return ph, err
		}
	}
	ph.factor = r.pace.factor()
	r.pace = nil
	ph.gcCycles = m1.NumGC - first.NumGC
	ph.gcPause = time.Duration(m1.PauseTotalNs - first.PauseTotalNs)
	return ph, nil
}
