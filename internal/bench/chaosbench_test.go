package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
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

// The chaos gate measures the failure-handling story end to end. Two
// measurements:
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
// holds the robustness bar or it does not, on any machine.

// ChaosScenarioResult is one failure scenario's measurement: the chaos run's
// failure/evacuation accounting plus the fragment-rate comparison against
// its healthy (failure-free) twin.
type ChaosScenarioResult struct {
	Scenario string

	// Failure events the dynamics engine injected.
	Crashes int
	Drains  int

	// Evacuation accounting (sched.Stats).
	Evacuated     int
	EvacCancelled int
	EvacLost      int

	// CompletionRate is the fraction of resolved evacuations that did not
	// end in loss: (Evacuated+EvacCancelled) / (Evacuated+EvacCancelled+
	// EvacLost). 1.0 when nothing resolved.
	CompletionRate float64

	// PlanSkipped counts repaired migrations that failed to apply over all
	// cycles; it must be 0, since a repaired plan always applies cleanly.
	PlanSkipped int

	// Final 16-core fragment rates: the chaos run vs the same scenario with
	// its FailureSpec zeroed (same seed, same churn shape). FRDrift is
	// chaos − healthy: positive means failures left the fleet more
	// fragmented than churn alone would have.
	HealthyFinalFR float64
	ChaosFinalFR   float64
	FRDrift        float64

	// InvariantErr is the first violated serving invariant ("" when clean):
	// cluster Validate, failure accounting, or a plan that did not apply.
	InvariantErr string
}

// ChaosShedResult is the degraded-mode shedding measurement: a deterministic
// overload against serve.Scheduler with ShedDepth set, and the same shape
// with shedding disabled as the control.
type ChaosShedResult struct {
	// Shed run counters (ShedDepth enabled).
	Submitted uint64
	Rows      uint64
	Shed      uint64
	// ShedRate is Shed / Submitted.
	ShedRate float64
	// AccountingOK pins the zero-silent-loss identity on the scheduler's own
	// counters: Submitted == Rows + DroppedCancel + DroppedShed.
	AccountingOK bool
	// Control run (ShedDepth 0): same overload, must shed nothing.
	ControlShed uint64
}

// ChaosReport is the report of one chaos run.
type ChaosReport struct {
	Scenarios []ChaosScenarioResult
	Shed      ChaosShedResult
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
	skipped     int
	finalFR     float64
	invariantOK error
}

// runChaosLoop drives the Fig. 5 serving loop (solve on snapshot → fail and
// churn live → repair → apply) for chaosCycles×chaosMinutes, mirroring
// scenario.RunInvariantCheck but collecting the accounting instead of
// stopping at the first number. stripFailures runs the healthy twin: same
// scenario, same seed, FailureSpec zeroed.
func runChaosLoop(s scenario.Scenario, stripFailures bool) (chaosLoopStats, error) {
	var out chaosLoopStats
	if stripFailures {
		s.Dynamics.Failures = sched.FailureSpec{}
	}
	obj, err := s.ParseObjective()
	if err != nil {
		return out, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
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
	for i := 0; i < chaosCycles; i++ {
		env := sim.New(c.Clone(), sim.Config{MNL: s.MNL, Obj: obj})
		if err := (heuristics.HA{}).Solve(context.Background(), env); err != nil {
			return out, fmt.Errorf("chaos %q cycle %d: solve: %w", s.Name, i, err)
		}
		plan := env.Plan()

		dyn.Advance(chaosMinutes)
		if out.invariantOK == nil {
			out.invariantOK = check("after churn", i)
		}

		rp := solver.RepairPlanObjective(c, plan, obj)
		applied, skipped := sim.ApplyPlan(c, rp.Plan)
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
	out.finalFR = c.FragRate(cluster.DefaultFragCores)
	return out, nil
}

// runChaosScenario measures one failure scenario against its healthy twin.
func runChaosScenario(name string) (ChaosScenarioResult, error) {
	s, err := scenario.Get(name)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	chaos, err := runChaosLoop(s, false)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	healthy, err := runChaosLoop(s, true)
	if err != nil {
		return ChaosScenarioResult{}, err
	}
	res := ChaosScenarioResult{
		Scenario:       name,
		Crashes:        chaos.stats.Crashes,
		Drains:         chaos.stats.Drains,
		Evacuated:      chaos.stats.Evacuated,
		EvacCancelled:  chaos.stats.EvacCancelled,
		EvacLost:       chaos.stats.EvacLost,
		PlanSkipped:    chaos.skipped,
		HealthyFinalFR: healthy.finalFR,
		ChaosFinalFR:   chaos.finalFR,
		FRDrift:        chaos.finalFR - healthy.finalFR,
	}
	resolved := res.Evacuated + res.EvacCancelled + res.EvacLost
	if resolved > 0 {
		res.CompletionRate = float64(res.Evacuated+res.EvacCancelled) / float64(resolved)
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
func runChaosShed() (ChaosShedResult, error) {
	const (
		shedDepth = 4
		shedHeld  = shedDepth
		shedBurst = 8
	)
	fx := newShedFixture()
	opts := policy.SampleOpts{Greedy: true}
	var res ChaosShedResult

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
	res.ControlShed = cst.DroppedShed
	res.AccountingOK = res.AccountingOK && cst.Submitted == cst.Rows+cst.DroppedCancel+cst.DroppedShed
	return res, nil
}

// runChaos runs the standard chaos gate: both registered failure scenarios
// for chaosCycles serving cycles of chaosMinutes each, plus the
// deterministic shed overload.
func runChaos() (ChaosReport, error) {
	var rep ChaosReport
	for _, name := range chaosScenarios {
		res, err := runChaosScenario(name)
		if err != nil {
			return rep, err
		}
		rep.Scenarios = append(rep.Scenarios, res)
	}
	shed, err := runChaosShed()
	if err != nil {
		return rep, err
	}
	rep.Shed = shed
	return rep, nil
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

// TestRunChaosSmall runs the standard-length chaos loop (the failure rates
// are per simulated minute, so shorter runs inject nothing; the standard run
// is already CI-sized) plus the shed overload, and requires the result to
// clear the pinned gates.
func TestRunChaosSmall(t *testing.T) {
	rep, err := runChaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != len(chaosScenarios) {
		t.Fatalf("measured %d scenarios, want %d", len(rep.Scenarios), len(chaosScenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.InvariantErr != "" {
			t.Errorf("%s: invariant violated: %s", sc.Scenario, sc.InvariantErr)
		}
		if sc.CompletionRate < 0 || sc.CompletionRate > 1 {
			t.Errorf("%s: completion rate %v outside [0,1]", sc.Scenario, sc.CompletionRate)
		}
	}
	// The shed overload is deterministic: the burst rows are always the
	// strictly-lowest priority against a queue held at ShedDepth.
	if rep.Shed.Shed != 8 {
		t.Errorf("shed %d rows, want exactly the 8-row burst", rep.Shed.Shed)
	}
	if !rep.Shed.AccountingOK {
		t.Errorf("shed accounting identity violated: %+v", rep.Shed)
	}
	if rep.Shed.ControlShed != 0 {
		t.Errorf("control shed %d rows with shedding disabled", rep.Shed.ControlShed)
	}
	if regs := ChaosRegressions(rep); len(regs) != 0 {
		t.Errorf("pinned gates failed on a short run: %v", regs)
	}
}

// TestChaosRegressionsGates pins each gate's trigger on synthetic reports.
func TestChaosRegressionsGates(t *testing.T) {
	good := ChaosReport{
		Scenarios: []ChaosScenarioResult{{
			Scenario: "pm-crash-storm", Crashes: 3, Evacuated: 9, EvacCancelled: 1,
			CompletionRate: 1, FRDrift: 0.01,
		}},
		Shed: ChaosShedResult{Submitted: 12, Rows: 4, Shed: 8, ShedRate: 8.0 / 12, AccountingOK: true},
	}
	if regs := ChaosRegressions(good); len(regs) != 0 {
		t.Fatalf("clean report flagged: %v", regs)
	}
	bad := good
	bad.Scenarios = []ChaosScenarioResult{{
		Scenario: "pm-crash-storm",                     // no failures injected
		EvacLost: 5, Evacuated: 5, CompletionRate: 0.5, // below completion pin
		FRDrift:      ChaosMaxFRDrift + 0.1,
		PlanSkipped:  2,
		InvariantErr: "boom",
	}}
	bad.Shed = ChaosShedResult{Submitted: 12, Rows: 12, Shed: 0, AccountingOK: false, ControlShed: 3}
	regs := ChaosRegressions(bad)
	for _, want := range []string{
		"invariant violated", "failed to apply", "no failures injected",
		"completion", "FR drift", "accounting identity", "shed nothing", "control run shed",
	} {
		found := false
		for _, r := range regs {
			if strings.Contains(r, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("gate %q did not fire: %v", want, regs)
		}
	}
}
