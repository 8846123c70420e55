package solver

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sched"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// buildPlanFixture returns a 3-PM cluster with one VM on PM0 and a plan
// moving it to PM1.
func buildPlanFixture(t *testing.T) (*cluster.Cluster, []sim.Migration) {
	t.Helper()
	c := cluster.New(3, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	id := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(id, 0, 0); err != nil {
		t.Fatal(err)
	}
	return c, []sim.Migration{{VM: id, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0}}
}

func TestValidatePlanValid(t *testing.T) {
	c, plan := buildPlanFixture(t)
	checks := ValidatePlan(c, plan)
	if len(checks) != 1 || checks[0].Status != MigrationValid {
		t.Fatalf("checks = %+v, want one valid", checks)
	}
	// live must not be mutated.
	if c.VMs[0].PM != 0 {
		t.Fatal("ValidatePlan mutated the live cluster")
	}
}

func TestValidatePlanStaleVMGone(t *testing.T) {
	c, plan := buildPlanFixture(t)
	if err := c.Remove(plan[0].VM); err != nil {
		t.Fatal(err)
	}
	if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleVMGone {
		t.Fatalf("status = %v, want stale-vm-gone", st)
	}
	// Out-of-range VM id (plan from a snapshot with more VMs).
	if st := ValidatePlan(c, []sim.Migration{{VM: 99, FromPM: 0, ToPM: 1}})[0].Status; st != MigrationStaleVMGone {
		t.Fatalf("status = %v, want stale-vm-gone for unknown vm", st)
	}
}

func TestValidatePlanStaleConflictMoved(t *testing.T) {
	c, plan := buildPlanFixture(t)
	// VMS moved the VM to PM2 since the snapshot.
	if err := c.Migrate(plan[0].VM, 2, cluster.DefaultFragCores); err != nil {
		t.Fatal(err)
	}
	if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleConflict {
		t.Fatalf("status = %v, want stale-conflict", st)
	}
}

func TestValidatePlanStaleDestFull(t *testing.T) {
	c, plan := buildPlanFixture(t)
	// Fill PM1 completely on both NUMAs.
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		id := c.AddVM(cluster.VMType{CPU: 32, Mem: 64, Numas: 1})
		if err := c.Place(id, 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleDestFull {
		t.Fatalf("status = %v, want stale-dest-full", st)
	}
}

func TestValidatePlanStaleAffinityConflict(t *testing.T) {
	c, plan := buildPlanFixture(t)
	c.VMs[plan[0].VM].Service = 7
	// An anti-affine peer landed on the destination since the snapshot.
	peer := c.AddVM(cluster.VMType{CPU: 2, Mem: 4, Numas: 1})
	c.VMs[peer].Service = 7
	if err := c.Place(peer, 1, 0); err != nil {
		t.Fatal(err)
	}
	c.EnableAntiAffinity()
	if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleConflict {
		t.Fatalf("status = %v, want stale-conflict (affinity)", st)
	}
}

func TestValidatePlanSequencedDependency(t *testing.T) {
	// VM b (30c) only fits on PM1 after VM a (4c) vacates it: the plan is
	// valid only as a sequence, and ValidatePlan must track that.
	c := cluster.New(3, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	a := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(a, 1, 0); err != nil {
		t.Fatal(err)
	}
	b := c.AddVM(cluster.VMType{CPU: 30, Mem: 30, Numas: 1})
	if err := c.Place(b, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Fill PM1's second NUMA so b can only land where a sits.
	fill := c.AddVM(cluster.VMType{CPU: 32, Mem: 64, Numas: 1})
	if err := c.Place(fill, 1, 1); err != nil {
		t.Fatal(err)
	}
	plan := []sim.Migration{
		{VM: a, FromPM: 1, FromNuma: 0, ToPM: 2, ToNuma: 0},
		{VM: b, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0},
	}
	checks := ValidatePlan(c, plan)
	for i, ch := range checks {
		if ch.Status != MigrationValid {
			t.Fatalf("check %d = %v, want valid (sequenced)", i, ch.Status)
		}
	}
	// Sanity: without the first migration, the second alone is infeasible.
	if st := ValidatePlan(c, plan[1:])[0].Status; st != MigrationStaleDestFull {
		t.Fatalf("unsequenced second migration = %v, want stale-dest-full", st)
	}
}

// TestValidatePlanCorruptSwapPair guards the swap path against out-of-range
// ids (including negative ones): classification, not a panic.
func TestValidatePlanCorruptSwapPair(t *testing.T) {
	c, _ := buildPlanFixture(t)
	plan := []sim.Migration{
		{VM: -1, FromPM: 0, ToPM: 1, Swap: true},
		{VM: 0, FromPM: 0, ToPM: 1, Swap: true},
	}
	checks := ValidatePlan(c, plan)
	if len(checks) != 2 || checks[0].Status != MigrationStaleVMGone {
		t.Fatalf("checks = %+v, want first stale-vm-gone", checks)
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.Dropped != 2 || len(rp.Plan) != 0 {
		t.Fatalf("repair = %+v / %v, want both dropped", rp.Stats, rp.Plan)
	}
}

func TestRepairPlanCounts(t *testing.T) {
	c, _ := buildPlanFixture(t)
	// Three VMs: one stays valid, one exits, one gets a full destination.
	v2 := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(v2, 0, 0); err != nil {
		t.Fatal(err)
	}
	v3 := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(v3, 0, 1); err != nil {
		t.Fatal(err)
	}
	plan := []sim.Migration{
		{VM: 0, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0},
		{VM: v2, FromPM: 0, FromNuma: 0, ToPM: 2, ToNuma: 0},
		{VM: v3, FromPM: 0, FromNuma: 1, ToPM: 2, ToNuma: 0},
	}
	// Drift: v2 exits.
	if err := c.Remove(v2); err != nil {
		t.Fatal(err)
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.Valid != 2 || rp.Stats.Dropped != 1 || rp.Stats.Repaired != 0 {
		t.Fatalf("stats = %+v, want 2 valid / 1 dropped", rp.Stats)
	}
	if len(rp.Plan) != 2 {
		t.Fatalf("repaired plan has %d migrations, want 2", len(rp.Plan))
	}
	// The returned plan must apply cleanly to a copy of the live cluster.
	cp := c.Clone()
	applied, skipped := sim.ApplyPlan(cp, rp.Plan)
	if skipped != 0 || applied != len(rp.Plan) {
		t.Fatalf("repaired plan: applied %d skipped %d", applied, skipped)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairPlanRefitsStaleDestination(t *testing.T) {
	// A 4c VM on PM0 NUMA0 (free 12 → frag 12; removal leaves free 16 →
	// frag 0, source gain 12), planned to PM1 — but PM1 filled up since.
	// PM2 NUMA0 sits at free 20 (frag 4); placing the 4c VM there leaves
	// free 16 (frag 0, gain 4), so the repair re-fits to PM2.
	c := cluster.New(3, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	id := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(id, 0, 0); err != nil {
		t.Fatal(err)
	}
	f0 := c.AddVM(cluster.VMType{CPU: 16, Mem: 16, Numas: 1})
	if err := c.Place(f0, 0, 0); err != nil {
		t.Fatal(err)
	}
	f2 := c.AddVM(cluster.VMType{CPU: 12, Mem: 12, Numas: 1})
	if err := c.Place(f2, 2, 0); err != nil {
		t.Fatal(err)
	}
	plan := []sim.Migration{{VM: id, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0}}
	// Drift: PM1 fills completely.
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		fid := c.AddVM(cluster.VMType{CPU: 32, Mem: 64, Numas: 1})
		if err := c.Place(fid, 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.Repaired != 1 || rp.Stats.Valid != 0 || rp.Stats.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 repaired", rp.Stats)
	}
	if rp.Plan[0].ToPM != 2 {
		t.Fatalf("refit destination = pm %d, want 2", rp.Plan[0].ToPM)
	}
	if rp.FinalFR >= rp.InitialFR {
		t.Fatalf("repair did not reduce FR: %v -> %v", rp.InitialFR, rp.FinalFR)
	}
}

func TestRepairPlanDropsWhenNoImprovingDestination(t *testing.T) {
	// Planned destination gone and every alternative placement would only
	// create fragment: the migration is dropped, not forced.
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	id := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(id, 0, 0); err != nil {
		t.Fatal(err)
	}
	plan := []sim.Migration{{VM: id, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0}}
	// Drift: PM1 fills. With only 2 PMs there is no alternative.
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		fid := c.AddVM(cluster.VMType{CPU: 32, Mem: 64, Numas: 1})
		if err := c.Place(fid, 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.Dropped != 1 || len(rp.Plan) != 0 {
		t.Fatalf("stats = %+v plan %v, want all dropped", rp.Stats, rp.Plan)
	}
}

// TestRepairPlanObjectiveAware pins that repairs are scored under the
// job's objective: a stale migration whose only good alternative improves
// memory fragment (but worsens CPU fragment) is re-fitted under a memory
// objective and dropped under the default FR16.
func TestRepairPlanObjectiveAware(t *testing.T) {
	build := func() (*cluster.Cluster, []sim.Migration) {
		c := cluster.New(3, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
		// The VM: tiny CPU, large memory.
		id := c.AddVM(cluster.VMType{CPU: 2, Mem: 24, Numas: 1})
		if err := c.Place(id, 0, 0); err != nil {
			t.Fatal(err)
		}
		// Source PM0 NUMA0 ends at cpu free 16 (frag 0; removal worsens CPU),
		// mem free 40 (64-GB frag 40; removal zeroes it).
		f0 := c.AddVM(cluster.VMType{CPU: 14, Mem: 0, Numas: 1})
		if err := c.Place(f0, 0, 0); err != nil {
			t.Fatal(err)
		}
		// Planned destination PM1: completely full (stale-dest-full).
		for numa := 0; numa < cluster.NumasPerPM; numa++ {
			fid := c.AddVM(cluster.VMType{CPU: 32, Mem: 64, Numas: 1})
			if err := c.Place(fid, 1, numa); err != nil {
				t.Fatal(err)
			}
		}
		// Alternative PM2 NUMA0: cpu free 16 (placing worsens CPU frag by 14),
		// mem free 24 (placing zeroes the 24-GB mem frag).
		f2 := c.AddVM(cluster.VMType{CPU: 16, Mem: 40, Numas: 1})
		if err := c.Place(f2, 2, 0); err != nil {
			t.Fatal(err)
		}
		return c, []sim.Migration{{VM: id, FromPM: 0, FromNuma: 0, ToPM: 1, ToNuma: 0}}
	}

	c, plan := build()
	memObj := sim.MixedResource(1) // pure Mem64
	rp := RepairPlanObjective(c, plan, memObj)
	if rp.Stats.Repaired != 1 || rp.Plan[0].ToPM != 2 {
		t.Fatalf("mem objective: stats %+v plan %v, want refit to pm 2", rp.Stats, rp.Plan)
	}

	c, plan = build()
	rp = RepairPlanObjective(c, plan, sim.FR16()) // FR16: the same move only adds CPU fragment
	if rp.Stats.Dropped != 1 || len(rp.Plan) != 0 {
		t.Fatalf("fr16: stats %+v plan %v, want dropped", rp.Stats, rp.Plan)
	}
}

// TestValidatePlanUnknownDestination guards the ToPM bounds check: a plan
// from a differently sized cluster classifies instead of panicking.
func TestValidatePlanUnknownDestination(t *testing.T) {
	c, _ := buildPlanFixture(t)
	for _, toPM := range []int{-1, 99} {
		plan := []sim.Migration{{VM: 0, FromPM: 0, ToPM: toPM}}
		if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleDestFull {
			t.Fatalf("ToPM %d: status %v, want stale-dest-full", toPM, st)
		}
		rp := RepairPlanObjective(c, plan, sim.FR16())
		if got := rp.Stats.Valid + rp.Stats.Repaired + rp.Stats.Dropped; got != 1 {
			t.Fatalf("ToPM %d: stats %+v", toPM, rp.Stats)
		}
	}
}

// TestRepairPlanUnderChurnAppliesCleanly is the integration property: solve
// on a snapshot, churn the live cluster, repair — the repaired plan must
// apply to the live cluster with zero skips and never increase fragment.
func TestRepairPlanUnderChurnAppliesCleanly(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := trace.MustProfile("tiny").GenerateFragmented(rng, 0.1, 10)
		snapshot := live.Clone()

		// "Solve" on the snapshot with a greedy pass: move VMs to better PMs.
		env := sim.New(snapshot, sim.DefaultConfig(6))
		greedy(env)
		plan := append([]sim.Migration(nil), env.Plan()...)

		// Meanwhile the live cluster churns.
		mix := []cluster.VMType{cluster.StandardTypes[0], cluster.StandardTypes[1], cluster.StandardTypes[3]}
		d := sched.NewDynamics(live, rng, mix, sched.Constant(3))
		d.Advance(10)

		rp := RepairPlanObjective(live, plan, sim.FR16())
		if got := rp.Stats.Valid + rp.Stats.Repaired + rp.Stats.Dropped; got != len(plan) {
			t.Fatalf("seed %d: stats %+v don't cover plan of %d", seed, rp.Stats, len(plan))
		}
		cp := live.Clone()
		applied, skipped := sim.ApplyPlan(cp, rp.Plan)
		if skipped != 0 {
			t.Fatalf("seed %d: repaired plan skipped %d of %d", seed, skipped, applied+skipped)
		}
		if err := cp.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		liveFR := live.FragRate(cluster.DefaultFragCores)
		if rp.InitialFR != liveFR {
			t.Fatalf("seed %d: InitialFR %v != live FR %v", seed, rp.InitialFR, liveFR)
		}
		// The reported fragment delta must be the true one: applying the
		// repaired plan to the live cluster lands exactly on FinalFR. (The
		// delta itself can be adversarial — a still-feasible migration may
		// have turned harmful under churn; honesty, not improvement, is the
		// contract.)
		if got := cp.FragRate(cluster.DefaultFragCores); mathAbs(got-rp.FinalFR) > 1e-12 {
			t.Fatalf("seed %d: reported FinalFR %v != achieved %v", seed, rp.FinalFR, got)
		}
	}
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// greedy performs a simple improving-move pass recorded through the env.
func greedy(env *sim.Env) {
	for !env.Done() {
		c := env.Cluster()
		bestVM, bestPM, bestGain := -1, -1, 0.0
		before := env.Value()
		for vm := range c.VMs {
			if !c.VMs[vm].Placed() {
				continue
			}
			for pm := range c.PMs {
				if !c.CanHost(vm, pm) {
					continue
				}
				f := sim.New(c, sim.Config{MNL: 1, Obj: env.Objective()})
				if _, _, err := f.Step(vm, pm); err == nil {
					if gain := before - f.Value(); gain > bestGain {
						bestVM, bestPM, bestGain = vm, pm, gain
					}
				}
			}
		}
		if bestVM < 0 {
			return
		}
		if _, _, err := env.Step(bestVM, bestPM); err != nil {
			return
		}
	}
}
