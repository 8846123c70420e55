package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/sched"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

func TestFailureScenariosRegistered(t *testing.T) {
	for _, name := range []string{"pm-crash-storm", "rolling-maintenance"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dynamics.Failures == (sched.FailureSpec{}) {
			t.Fatalf("%s: no failure spec", name)
		}
		rng := rand.New(rand.NewSource(s.Seed))
		c, err := s.Build(rng)
		if err != nil {
			t.Fatal(err)
		}
		d := s.Dynamics.NewDynamics(c, rng, s.Mix())
		if st := d.ExportState(); st.Fail == nil || !st.Fail.On {
			t.Fatalf("%s: NewDynamics did not enable failure dynamics", name)
		}
		d.Advance(60)
		st := d.Stats()
		if st.Crashes+st.Drains == 0 {
			t.Fatalf("%s: no failure events in an hour (stats %+v)", name, st)
		}
		if err := d.CheckFailureInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRandomScenarioAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes, failures := map[Shape]bool{}, 0
	for i := 0; i < 200; i++ {
		s := RandomScenario(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("draw %d: %v (spec %+v)", i, err, s)
		}
		shapes[s.Dynamics.Shape] = true
		if s.Dynamics.Failures != (sched.FailureSpec{}) {
			failures++
		}
	}
	if len(shapes) < 4 {
		t.Fatalf("walk covered only shapes %v", shapes)
	}
	if failures < 50 {
		t.Fatalf("walk degraded the fleet only %d/200 times", failures)
	}
}

// TestFuzzedScenarioInvariants is the scenario fuzzer: random specs through
// the full solve/churn/repair/apply loop, first violation fails.
func TestFuzzedScenarioInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 6
	if testing.Short() {
		n = 2
	}
	for i := 0; i < n; i++ {
		s := RandomScenario(rng)
		// tiny keeps the fuzz loop fast; the registry test covers the mid
		// profile.
		s.Profile = "tiny"
		if err := runInvariantCheck(s, int64(i), 3, 17); err != nil {
			t.Fatalf("fuzz %d: %v\nspec: %+v", i, err, s)
		}
	}
}

func TestRunInvariantCheckNamedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-profile scenarios are not short-mode material")
	}
	for _, name := range []string{"pm-crash-storm", "rolling-maintenance"} {
		s := MustGet(name)
		if err := runInvariantCheck(s, s.Seed, 2, 20); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// runInvariantCheck runs the full serving loop of paper Fig. 5 against the
// scenario — solve on a snapshot, churn (and fail) the live cluster, repair
// the plan, apply it — for the given number of cycles of minutes each, and
// returns the first violated serving invariant:
//
//   - the live cluster passes Validate (capacity, aggregates, anti-affinity)
//     after every churn window and every applied plan;
//   - failure accounting balances and no VM sits on a Down PM past its
//     evacuation deadline (sched.Dynamics.CheckFailureInvariants);
//   - the repaired plan always applies cleanly to the live cluster it was
//     repaired against.
func runInvariantCheck(s Scenario, seed int64, cycles, minutes int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	obj, err := sim.ParseObjective(s.Objective)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	c, err := s.Build(rng)
	if err != nil {
		return err
	}
	c.FragRate(cluster.DefaultFragCores) // warm aggregates so Validate cross-checks them
	dyn := s.Dynamics.NewDynamics(c, rng, s.Mix())
	for i := 0; i < cycles; i++ {
		// Solve against a snapshot while the live cluster keeps moving.
		env := sim.New(c.Clone(), sim.Config{MNL: s.MNL, Obj: obj})
		if err := (heuristics.HA{}).Solve(context.Background(), env); err != nil {
			return fmt.Errorf("scenario %q cycle %d: solve: %w", s.Name, i, err)
		}
		plan := env.Plan()

		dyn.Advance(minutes)
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario %q cycle %d: after churn: %w", s.Name, i, err)
		}
		if err := dyn.CheckFailureInvariants(); err != nil {
			return fmt.Errorf("scenario %q cycle %d: %w", s.Name, i, err)
		}

		rp := solver.RepairPlanObjective(c, plan, obj)
		applied, skipped := sim.ApplyPlan(c, rp.Plan)
		if skipped != 0 || applied != len(rp.Plan) {
			return fmt.Errorf("scenario %q cycle %d: repaired plan did not apply cleanly: %d/%d applied, %d skipped",
				s.Name, i, applied, len(rp.Plan), skipped)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario %q cycle %d: after applying plan: %w", s.Name, i, err)
		}
	}
	return nil
}
