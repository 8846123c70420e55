package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/policy"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sched"
	"vmr2l/internal/serve"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// The chaos benchmark measures the failure-handling story end to end and
// writes BENCH_chaos.json. Run via
//
//	vmr2l-bench -chaos               # measure -> BENCH_chaos.json
//	vmr2l-bench -chaos -chaos-check  # CI gate
//
// Two measurements:
//
//   - Each registered failure scenario (pm-crash-storm, rolling-maintenance)
//     runs the full serving loop of paper Fig. 5 — solve on a snapshot, fail
//     and churn the live cluster, repair, apply — and the identical scenario
//     runs again with failures stripped. The chaos run must keep every
//     serving invariant (plans apply cleanly, evacuation accounting
//     balances), resolve its evacuations with a pinned completion rate, and
//     land within a pinned fragment-rate drift of its healthy twin.
//   - The serving scheduler runs a deterministic overload with degraded-mode
//     shedding enabled and again with it disabled: the shed run must shed
//     exactly the overflow (with Submitted == Rows + Shed accounting), the
//     control run must shed nothing.
//
// All gates are absolute pins, not baseline-relative: chaos handling either
// holds the robustness bar or it does not, on any machine. The artifact still
// pins a baseline section on first write so drift stays reviewable in the
// repo history.

// ChaosScenarioResult is one failure scenario's measurement: the chaos run's
// failure/evacuation accounting plus the fragment-rate comparison against
// its healthy (failure-free) twin.
type ChaosScenarioResult struct {
	Scenario string `json:"scenario"`
	Cycles   int    `json:"cycles"`
	Minutes  int    `json:"minutes"`

	// Failure events the dynamics engine injected.
	Crashes    int `json:"crashes"`
	Drains     int `json:"drains"`
	Recoveries int `json:"recoveries"`

	// Evacuation accounting (sched.Stats). EvacMarked is every VM ever
	// marked evacuation-pending; Pending is what is still unresolved at the
	// end of the run.
	EvacMarked    int `json:"evac_marked"`
	Evacuated     int `json:"evacuated"`
	EvacCancelled int `json:"evac_cancelled"`
	EvacLost      int `json:"evac_lost"`
	Pending       int `json:"pending"`

	// CompletionRate is the fraction of resolved evacuations that did not
	// end in loss: (Evacuated+EvacCancelled) / (Evacuated+EvacCancelled+
	// EvacLost). 1.0 when nothing resolved. LossRate is the complement.
	CompletionRate float64 `json:"completion_rate"`
	LossRate       float64 `json:"loss_rate"`

	// Repair-path totals over all cycles: migrations applied from repaired
	// plans (Skipped must be 0 — a repaired plan always applies cleanly),
	// forced evacuations the repair pre-pass emitted, and stranded VMs it
	// could not place.
	PlanApplied int `json:"plan_applied"`
	PlanSkipped int `json:"plan_skipped"`
	ForcedEvacs int `json:"forced_evacs"`
	EvacFailed  int `json:"evac_failed"`

	// Final 16-core fragment rates: the chaos run vs the same scenario with
	// its FailureSpec zeroed (same seed, same churn shape). FRDrift is
	// chaos − healthy: positive means failures left the fleet more
	// fragmented than churn alone would have.
	HealthyFinalFR float64 `json:"healthy_final_fr"`
	ChaosFinalFR   float64 `json:"chaos_final_fr"`
	FRDrift        float64 `json:"fr_drift"`

	// InvariantErr is the first violated serving invariant ("" when clean):
	// cluster Validate, failure accounting, or a plan that did not apply.
	InvariantErr string `json:"invariant_err,omitempty"`
}

// ChaosShedResult is the degraded-mode shedding measurement: a deterministic
// overload against serve.Scheduler with ShedDepth set, and the same shape
// with shedding disabled as the control.
type ChaosShedResult struct {
	// Shed run counters (ShedDepth enabled).
	Submitted uint64 `json:"submitted"`
	Rows      uint64 `json:"rows"`
	Shed      uint64 `json:"shed"`
	// ShedRate is Shed / Submitted.
	ShedRate float64 `json:"shed_rate"`
	// AccountingOK pins the zero-silent-loss identity on the scheduler's own
	// counters: Submitted == Rows + DroppedCancel + DroppedShed.
	AccountingOK bool `json:"accounting_ok"`
	// Control run (ShedDepth 0): same overload, must shed nothing.
	ControlSubmitted uint64 `json:"control_submitted"`
	ControlShed      uint64 `json:"control_shed"`
}

// ChaosReport is the JSON report of one chaos run.
type ChaosReport struct {
	GoVersion  string                `json:"go_version"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	Timestamp  string                `json:"timestamp"`
	Scenarios  []ChaosScenarioResult `json:"scenarios"`
	Shed       ChaosShedResult       `json:"shed"`
}

// At returns the named scenario's result (nil when not measured).
func (r ChaosReport) At(name string) *ChaosScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Scenario == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// chaosScenarios is the measured scenario set: the two registered failure
// scenarios of the robustness stack.
var chaosScenarios = []string{"pm-crash-storm", "rolling-maintenance"}

// Standard chaos-run length: enough cycles for crash storms to both strand
// and recover PMs, short enough for CI.
const (
	chaosCycles  = 6
	chaosMinutes = 5
)

// chaosLoopStats is what one serving-loop run yields for the report.
type chaosLoopStats struct {
	stats       sched.Stats
	evacMarked  int
	pending     int
	applied     int
	skipped     int
	forced      int
	evacFailed  int
	finalFR     float64
	invariantOK error
}

// runChaosLoop drives the Fig. 5 serving loop (solve on snapshot → fail and
// churn live → repair → apply) for cycles×minutes, mirroring
// scenario.RunInvariantCheck but collecting the accounting instead of
// stopping at the first number. stripFailures runs the healthy twin: same
// scenario, same seed, FailureSpec zeroed.
func runChaosLoop(s scenario.Scenario, seed int64, cycles, minutes int, stripFailures bool) (chaosLoopStats, error) {
	var out chaosLoopStats
	if stripFailures {
		s.Dynamics.Failures = sched.FailureSpec{}
	}
	obj, err := s.ParseObjective()
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(seed))
	c, err := s.Build(rng)
	if err != nil {
		return out, err
	}
	c.FragRate(cluster.DefaultFragCores) // warm aggregates so Validate cross-checks them
	dyn := s.NewDynamics(c, rng)
	check := func(stage string, i int) error {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("chaos %q cycle %d: %s: %w", s.Name, i, stage, err)
		}
		if err := dyn.CheckFailureInvariants(); err != nil {
			return fmt.Errorf("chaos %q cycle %d: %s: %w", s.Name, i, stage, err)
		}
		return nil
	}
	for i := 0; i < cycles; i++ {
		env := sim.New(c.Clone(), sim.Config{MNL: s.MNL, Obj: obj})
		if err := (heuristics.HA{}).Solve(context.Background(), env); err != nil {
			return out, fmt.Errorf("chaos %q cycle %d: solve: %w", s.Name, i, err)
		}
		plan := env.Plan()

		dyn.Advance(minutes)
		if out.invariantOK == nil {
			out.invariantOK = check("after churn", i)
		}

		rp := solver.RepairPlanObjective(c, plan, obj)
		out.forced += rp.Stats.Evacuated
		out.evacFailed += rp.Stats.EvacFailed
		applied, skipped := sim.ApplyPlan(c, rp.Plan)
		out.applied += applied
		out.skipped += skipped
		if out.invariantOK == nil && (skipped != 0 || applied != len(rp.Plan)) {
			out.invariantOK = fmt.Errorf("chaos %q cycle %d: repaired plan did not apply cleanly: %d/%d applied, %d skipped",
				s.Name, i, applied, len(rp.Plan), skipped)
		}
		if out.invariantOK == nil {
			out.invariantOK = check("after applying plan", i)
		}
	}
	out.stats = dyn.Stats()
	out.evacMarked = dyn.EvacMarked()
	out.pending = len(dyn.PendingEvacuations(nil))
	out.finalFR = c.FragRate(cluster.DefaultFragCores)
	return out, nil
}

// runChaosScenario measures one failure scenario against its healthy twin.
func runChaosScenario(name string, cycles, minutes int) (ChaosScenarioResult, error) {
	s, err := scenario.Get(name)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	chaos, err := runChaosLoop(s, s.Seed, cycles, minutes, false)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	healthy, err := runChaosLoop(s, s.Seed, cycles, minutes, true)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	res := ChaosScenarioResult{
		Scenario:       name,
		Cycles:         cycles,
		Minutes:        minutes,
		Crashes:        chaos.stats.Crashes,
		Drains:         chaos.stats.Drains,
		Recoveries:     chaos.stats.Recoveries,
		EvacMarked:     chaos.evacMarked,
		Evacuated:      chaos.stats.Evacuated,
		EvacCancelled:  chaos.stats.EvacCancelled,
		EvacLost:       chaos.stats.EvacLost,
		Pending:        chaos.pending,
		PlanApplied:    chaos.applied,
		PlanSkipped:    chaos.skipped,
		ForcedEvacs:    chaos.forced,
		EvacFailed:     chaos.evacFailed,
		HealthyFinalFR: healthy.finalFR,
		ChaosFinalFR:   chaos.finalFR,
		FRDrift:        chaos.finalFR - healthy.finalFR,
	}
	resolved := res.Evacuated + res.EvacCancelled + res.EvacLost
	if resolved > 0 {
		res.CompletionRate = float64(res.Evacuated+res.EvacCancelled) / float64(resolved)
		res.LossRate = float64(res.EvacLost) / float64(resolved)
	} else {
		res.CompletionRate = 1
	}
	if chaos.invariantOK != nil {
		res.InvariantErr = chaos.invariantOK.Error()
	} else if healthy.invariantOK != nil {
		res.InvariantErr = "healthy twin: " + healthy.invariantOK.Error()
	}
	return res, nil
}

// shedFixture is the shed overload's serving state: one fragmented
// tiny-profile mapping and a small untrained policy model (the forward's
// cost does not depend on the weights' values).
type shedFixture struct {
	c     *cluster.Cluster
	model *policy.Model
}

func newShedFixture() *shedFixture {
	return &shedFixture{
		c:     genMaps("tiny", 1, 7)[0],
		model: policy.New(agentSpec(policy.TwoStage, policy.SparseAttention, 7)),
	}
}

// chaosShedEnv builds a fresh per-row environment on the shared fixture.
func chaosShedEnv(fx *shedFixture) *sim.Env {
	return sim.New(fx.c.Clone(), sim.Config{MNL: 4, Obj: sim.FR16()})
}

// runChaosShed runs the deterministic shed overload. With the admission
// window held open (long MaxWait), shedHeld rows of priority 1 fill the queue
// to ShedDepth; shedBurst synchronous submissions at priority 0 then arrive
// as the strictly-lowest row each time and must shed immediately — so the
// run's shed count is exact, not timing-dependent. The control run repeats
// the burst shape with ShedDepth 0 and must shed nothing.
func runChaosShed(progress func(string)) (ChaosShedResult, error) {
	const (
		shedDepth = 4
		shedHeld  = shedDepth
		shedBurst = 8
	)
	fx := newShedFixture()
	opts := policy.SampleOpts{Greedy: true}
	var res ChaosShedResult

	if progress != nil {
		progress("shed overload")
	}
	s := serve.NewScheduler(fx.model, serve.Options{MaxRows: 16, MaxWait: 200 * time.Millisecond, ShedDepth: shedDepth})
	held := make(chan error, shedHeld)
	for k := 0; k < shedHeld; k++ {
		go func(k int) {
			env := chaosShedEnv(fx)
			_, err := s.Submit(serve.WithPriority(context.Background(), 1), policy.WaveReq{
				Kind: policy.WaveInfer, Env: env,
				Rng: rand.New(rand.NewSource(int64(k + 1))), Opts: opts,
			})
			held <- err
		}(k)
	}
	// Wait for the queue to hold every held row before bursting.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().QueueDepth < shedHeld {
		if time.Now().After(deadline) {
			s.Close()
			return res, fmt.Errorf("bench: chaos shed: queue never reached depth %d (at %d)", shedHeld, s.Stats().QueueDepth)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for k := 0; k < shedBurst; k++ {
		env := chaosShedEnv(fx)
		_, err := s.Submit(serve.WithPriority(context.Background(), 0), policy.WaveReq{
			Kind: policy.WaveInfer, Env: env,
			Rng: rand.New(rand.NewSource(int64(100 + k))), Opts: opts,
		})
		if !errors.Is(err, serve.ErrShed) {
			s.Close()
			return res, fmt.Errorf("bench: chaos shed: burst submit %d got %v, want ErrShed", k, err)
		}
	}
	for k := 0; k < shedHeld; k++ {
		if err := <-held; err != nil {
			s.Close()
			return res, fmt.Errorf("bench: chaos shed: held row: %w", err)
		}
	}
	st := s.Stats()
	if err := s.Close(); err != nil {
		return res, err
	}
	res.Submitted = st.Submitted
	res.Rows = st.Rows
	res.Shed = st.DroppedShed
	if st.Submitted > 0 {
		res.ShedRate = float64(st.DroppedShed) / float64(st.Submitted)
	}
	res.AccountingOK = st.Submitted == st.Rows+st.DroppedCancel+st.DroppedShed

	if progress != nil {
		progress("shed control")
	}
	ctl := serve.NewScheduler(fx.model, serve.Options{MaxRows: 4})
	var wg sync.WaitGroup
	ctlErrs := make([]error, shedHeld+shedBurst)
	for k := 0; k < shedHeld+shedBurst; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			env := chaosShedEnv(fx)
			_, err := ctl.Submit(serve.WithPriority(context.Background(), -k), policy.WaveReq{
				Kind: policy.WaveInfer, Env: env,
				Rng: rand.New(rand.NewSource(int64(200 + k))), Opts: opts,
			})
			ctlErrs[k] = err
		}(k)
	}
	wg.Wait()
	cst := ctl.Stats()
	if err := ctl.Close(); err != nil {
		return res, err
	}
	for k, err := range ctlErrs {
		if err != nil {
			return res, fmt.Errorf("bench: chaos shed control submit %d: %w", k, err)
		}
	}
	res.ControlSubmitted = cst.Submitted
	res.ControlShed = cst.DroppedShed
	res.AccountingOK = res.AccountingOK && cst.Submitted == cst.Rows+cst.DroppedCancel+cst.DroppedShed
	return res, nil
}

// runChaos measures the given scenario set; RunChaos wraps it with the
// standard parameters, tests with tiny ones.
func runChaos(names []string, cycles, minutes int, progress func(string)) (ChaosReport, error) {
	rep := ChaosReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, name := range names {
		if progress != nil {
			progress(name)
		}
		res, err := runChaosScenario(name, cycles, minutes)
		if err != nil {
			return rep, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	shed, err := runChaosShed(progress)
	if err != nil {
		return rep, err
	}
	rep.Shed = shed
	return rep, nil
}

// RunChaos runs the standard chaos benchmark: both registered failure
// scenarios for 6 serving cycles of 5 minutes each, plus the deterministic
// shed overload. progress (may be nil) is called before each measurement.
func RunChaos(progress func(string)) (ChaosReport, error) {
	return runChaos(chaosScenarios, chaosCycles, chaosMinutes, progress)
}

// ChaosArtifact is the on-disk BENCH_chaos.json: the pinned first
// measurement and the latest one.
type ChaosArtifact struct {
	Baseline *ChaosReport `json:"baseline,omitempty"`
	Current  *ChaosReport `json:"current,omitempty"`
}

// GateReference returns the pinned reference (current, falling back to
// baseline; nil when nothing is pinned). The chaos gates are absolute, so
// the reference only feeds the printed comparison, not the pass/fail.
func (a ChaosArtifact) GateReference() *ChaosReport {
	if a.Current != nil {
		return a.Current
	}
	return a.Baseline
}

// UpdateChaosArtifact merges a fresh report into the artifact at path:
// baseline pinned on first write, current always replaced.
func UpdateChaosArtifact(path string, rep ChaosReport) (ChaosArtifact, error) {
	art, err := LoadChaosArtifact(path)
	if err != nil {
		return art, err
	}
	if art.Baseline == nil {
		if art.Current != nil {
			art.Baseline = art.Current
		} else {
			art.Baseline = &rep
		}
	}
	art.Current = &rep
	f, err := os.Create(path)
	if err != nil {
		return art, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		f.Close()
		return art, err
	}
	if err := f.Close(); err != nil {
		return art, err
	}
	return art, nil
}

// LoadChaosArtifact reads the artifact at path; a missing file yields a zero
// artifact, a malformed one an error.
func LoadChaosArtifact(path string) (ChaosArtifact, error) {
	var art ChaosArtifact
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return art, nil
		}
		return art, err
	}
	if err := json.Unmarshal(data, &art); err != nil {
		return art, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return art, nil
}

// Pinned chaos gates. Absolute, machine-independent bars: the robustness
// stack either holds them or it does not.
const (
	// ChaosMinCompletion is the floor on the evacuation completion rate: at
	// least this fraction of resolved evacuations must end in a successful
	// migration or a cancellation, not in loss.
	ChaosMinCompletion = 0.90
	// ChaosMaxFRDrift caps how much more fragmented the chaos run may end
	// than its healthy twin (absolute fragment-rate points). Failures force
	// placements the optimizer would not choose, but the repair pre-pass
	// and per-cycle re-solving must keep the fleet serviceable.
	ChaosMaxFRDrift = 0.15
)

// ChaosRegressions applies the chaos gate to a fresh report — every bar is
// an absolute pin:
//
//   - every scenario ran clean: no violated serving invariant, plans applied
//     with zero skips;
//   - failures actually happened (a chaos run that injected nothing proves
//     nothing) and evacuations resolved at ≥ ChaosMinCompletion with the
//     fleet within ChaosMaxFRDrift fragment-rate points of its healthy twin;
//   - the shed overload shed rows with exact accounting, and the control run
//     with shedding disabled shed none.
func ChaosRegressions(rep ChaosReport) []string {
	var regs []string
	for _, sc := range rep.Scenarios {
		if sc.InvariantErr != "" {
			regs = append(regs, fmt.Sprintf("chaos %s: invariant violated: %s", sc.Scenario, sc.InvariantErr))
		}
		if sc.PlanSkipped != 0 {
			regs = append(regs, fmt.Sprintf("chaos %s: %d repaired migrations failed to apply", sc.Scenario, sc.PlanSkipped))
		}
		if sc.Crashes+sc.Drains == 0 {
			regs = append(regs, fmt.Sprintf("chaos %s: no failures injected (crashes+drains = 0)", sc.Scenario))
		}
		if sc.CompletionRate < ChaosMinCompletion {
			regs = append(regs, fmt.Sprintf("chaos %s: evacuation completion %.2f < %.2f (%d lost of %d resolved)",
				sc.Scenario, sc.CompletionRate, ChaosMinCompletion,
				sc.EvacLost, sc.Evacuated+sc.EvacCancelled+sc.EvacLost))
		}
		if sc.FRDrift > ChaosMaxFRDrift {
			regs = append(regs, fmt.Sprintf("chaos %s: FR drift %.3f > %.3f (healthy %.3f, chaos %.3f)",
				sc.Scenario, sc.FRDrift, ChaosMaxFRDrift, sc.HealthyFinalFR, sc.ChaosFinalFR))
		}
	}
	if !rep.Shed.AccountingOK {
		regs = append(regs, fmt.Sprintf("chaos shed: accounting identity violated (%d submitted, %d rows, %d shed)",
			rep.Shed.Submitted, rep.Shed.Rows, rep.Shed.Shed))
	}
	if rep.Shed.Shed == 0 {
		regs = append(regs, "chaos shed: overload run shed nothing (degraded mode never engaged)")
	}
	if rep.Shed.ControlShed != 0 {
		regs = append(regs, fmt.Sprintf("chaos shed: control run shed %d rows with shedding disabled", rep.Shed.ControlShed))
	}
	return regs
}

// Fprint renders the chaos report as aligned tables.
func (r ChaosReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "chaos benchmark: failure scenarios + degraded-mode shedding (%s, GOMAXPROCS=%d)\n", r.GoVersion, r.GoMaxProcs)
	fmt.Fprintf(w, "%-20s %7s %7s %5s %6s %5s %5s %7s %7s %8s %8s\n",
		"scenario", "crashes", "drains", "evac", "cancel", "lost", "pend", "applied", "forced", "complete", "FRdrift")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%-20s %7d %7d %5d %6d %5d %5d %7d %7d %8.2f %+8.3f\n",
			sc.Scenario, sc.Crashes, sc.Drains, sc.Evacuated, sc.EvacCancelled, sc.EvacLost,
			sc.Pending, sc.PlanApplied, sc.ForcedEvacs, sc.CompletionRate, sc.FRDrift)
		if sc.InvariantErr != "" {
			fmt.Fprintf(w, "  INVARIANT: %s\n", sc.InvariantErr)
		}
	}
	fmt.Fprintf(w, "shed: %d/%d rows shed (rate %.2f, accounting ok=%v); control: %d/%d shed\n",
		r.Shed.Shed, r.Shed.Submitted, r.Shed.ShedRate, r.Shed.AccountingOK,
		r.Shed.ControlShed, r.Shed.ControlSubmitted)
}

// Fprint renders current vs baseline completion rates.
func (a ChaosArtifact) Fprint(w io.Writer) {
	if a.Current == nil {
		fmt.Fprintln(w, "chaos artifact: no current measurement")
		return
	}
	a.Current.Fprint(w)
	if a.Baseline == nil || a.Baseline == a.Current {
		return
	}
	fmt.Fprintf(w, "vs baseline (%s):\n", a.Baseline.Timestamp)
	for _, sc := range a.Current.Scenarios {
		b := a.Baseline.At(sc.Scenario)
		if b == nil {
			continue
		}
		fmt.Fprintf(w, "  %-20s completion %.2f -> %.2f, FR drift %+.3f -> %+.3f\n",
			sc.Scenario, b.CompletionRate, sc.CompletionRate, b.FRDrift, sc.FRDrift)
	}
}
