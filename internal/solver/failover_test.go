package solver

import (
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

func TestValidatePlanStaleDestDown(t *testing.T) {
	for _, h := range []cluster.Health{cluster.Draining, cluster.Down} {
		c, plan := buildPlanFixture(t)
		if err := c.SetHealth(plan[0].ToPM, h); err != nil {
			t.Fatal(err)
		}
		if st := ValidatePlan(c, plan)[0].Status; st != MigrationStaleDestDown {
			t.Fatalf("dest health %v: status = %v, want stale-dest-down", h, st)
		}
	}
	if got := MigrationStaleDestDown.String(); got != "stale-dest-down" {
		t.Fatalf("wire name %q", got)
	}
}

func TestValidatePlanEvacRequired(t *testing.T) {
	// The VM's planned destination is degraded AND its source crashed: the
	// staleness upgrades to an evacuation order.
	c, plan := buildPlanFixture(t)
	if err := c.SetHealth(plan[0].ToPM, cluster.Down); err != nil {
		t.Fatal(err)
	}
	if err := c.SetHealth(plan[0].FromPM, cluster.Down); err != nil {
		t.Fatal(err)
	}
	if st := ValidatePlan(c, plan)[0].Status; st != MigrationEvacRequired {
		t.Fatalf("status = %v, want evacuation-required", st)
	}
	if got := MigrationEvacRequired.String(); got != "evacuation-required" {
		t.Fatalf("wire name %q", got)
	}
	// A plan that validly moves the VM off its crashed PM stays valid: the
	// evacuation order is only for stale entries.
	c2, plan2 := buildPlanFixture(t)
	if err := c2.SetHealth(plan2[0].FromPM, cluster.Down); err != nil {
		t.Fatal(err)
	}
	if st := ValidatePlan(c2, plan2)[0].Status; st != MigrationValid {
		t.Fatalf("status = %v, want valid evacuation", st)
	}
}

// degradedFixture builds a 4-PM cluster: PM0 hosts two VMs and will be
// crashed; PM1..PM3 have room.
func degradedFixture(t *testing.T) (*cluster.Cluster, []int) {
	t.Helper()
	c := cluster.New(4, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	var vms []int
	for i := 0; i < 2; i++ {
		id := c.AddVM(cluster.VMType{CPU: 8, Mem: 16, Numas: 1})
		if err := c.Place(id, 0, i%cluster.NumasPerPM); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, id)
	}
	c.FragRate(cluster.DefaultFragCores)
	return c, vms
}

// TestRepairEvacuatesStranded pins the forced-evacuation pre-pass: with no
// plan at all, repair of a degraded fleet still emits Forced migrations for
// every stranded VM, and the repaired plan applies cleanly.
func TestRepairEvacuatesStranded(t *testing.T) {
	c, vms := degradedFixture(t)
	if err := c.SetHealth(0, cluster.Down); err != nil {
		t.Fatal(err)
	}
	rp := RepairPlanObjective(c, nil, sim.FR16())
	if rp.Stats.Evacuated != len(vms) || rp.Stats.EvacFailed != 0 {
		t.Fatalf("stats %+v, want %d evacuated", rp.Stats, len(vms))
	}
	if len(rp.Plan) != len(vms) {
		t.Fatalf("plan has %d entries, want %d", len(rp.Plan), len(vms))
	}
	for _, m := range rp.Plan {
		if !m.Forced {
			t.Fatalf("evacuation not marked Forced: %+v", m)
		}
		if m.FromPM != 0 {
			t.Fatalf("evacuation from pm %d, want 0", m.FromPM)
		}
	}
	// The emitted plan applies cleanly to the live cluster and empties the
	// crashed PM.
	live := c.Clone()
	if applied, skipped := sim.ApplyPlan(live, rp.Plan); skipped != 0 || applied != len(rp.Plan) {
		t.Fatalf("applied %d/%d, skipped %d", applied, len(rp.Plan), skipped)
	}
	if n := len(live.PMs[0].VMs); n != 0 {
		t.Fatalf("%d VMs left on the crashed PM", n)
	}
	if err := live.Validate(); err != nil {
		t.Fatal(err)
	}
	// live input itself was never mutated.
	if len(c.PMs[0].VMs) != len(vms) {
		t.Fatal("RepairPlan mutated the live cluster")
	}
}

// TestRepairEvacHonorsPlannedDestination pins that the pre-pass reuses the
// plan's own destination when it still fits, and consumes that plan entry
// instead of double-counting it.
func TestRepairEvacHonorsPlannedDestination(t *testing.T) {
	c, vms := degradedFixture(t)
	plan := []sim.Migration{
		{VM: vms[0], FromPM: 0, FromNuma: c.VMs[vms[0]].Numa, ToPM: 3},
	}
	if err := c.SetHealth(0, cluster.Down); err != nil {
		t.Fatal(err)
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.Evacuated != len(vms) || rp.Stats.Valid != 0 || rp.Stats.Repaired != 0 || rp.Stats.Dropped != 0 {
		t.Fatalf("stats %+v: the planned entry must be consumed by its evacuation", rp.Stats)
	}
	var dest = -1
	for _, m := range rp.Plan {
		if m.VM == vms[0] {
			dest = m.ToPM
		}
	}
	if dest != 3 {
		t.Fatalf("evacuation for planned VM went to pm %d, want the plan's 3", dest)
	}
}

// TestRepairEvacFailedCountsHonestly pins the no-room path: a stranded VM
// no Up PM can host is counted EvacFailed and left in place — never
// silently dropped from the accounting.
func TestRepairEvacFailedCountsHonestly(t *testing.T) {
	c := cluster.New(2, cluster.PMSmall)
	full := cluster.VMType{CPU: cluster.PMSmall.CPUPerNuma, Mem: cluster.PMSmall.MemPerNuma, Numas: 1}
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		if err := c.Place(c.AddVM(full), 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	stuck := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(stuck, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.FragRate(cluster.DefaultFragCores)
	if err := c.SetHealth(0, cluster.Down); err != nil {
		t.Fatal(err)
	}
	rp := RepairPlanObjective(c, nil, sim.FR16())
	if rp.Stats.EvacFailed != 1 || rp.Stats.Evacuated != 0 {
		t.Fatalf("stats %+v, want one failed evacuation", rp.Stats)
	}
	if len(rp.Plan) != 0 {
		t.Fatalf("plan %+v for an unevacuable fleet", rp.Plan)
	}
}

// TestRepairEvacRequiredRetriesAfterFreedCapacity covers the late-rescue
// path: the pre-pass fails for a stranded VM, but a planned exit-like
// migration frees room before the walk reaches the VM's own stale entry —
// the forced refit then succeeds and the accounting moves the VM from
// EvacFailed to Evacuated.
func TestRepairEvacRequiredRetriesAfterFreedCapacity(t *testing.T) {
	c := cluster.New(3, cluster.PMType{CPUPerNuma: 16, MemPerNuma: 32})
	// stuck (14 cores) sits on PM0. PM1's NUMAs hold 4-core VMs (12 free
	// each), PM2's hold 8-core VMs (8 free each): nowhere fits 14, so the
	// pre-pass must fail. The plan then moves a 4-core VM from PM1 to PM2,
	// opening a 16-core NUMA on PM1.
	small := cluster.VMType{CPU: 4, Mem: 8, Numas: 1}
	mid := cluster.VMType{CPU: 8, Mem: 16, Numas: 1}
	mover := c.AddVM(small)
	if err := c.Place(mover, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(c.AddVM(small), 1, 1); err != nil {
		t.Fatal(err)
	}
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		if err := c.Place(c.AddVM(mid), 2, numa); err != nil {
			t.Fatal(err)
		}
	}
	stuck := c.AddVM(cluster.VMType{CPU: 14, Mem: 16, Numas: 1})
	if err := c.Place(stuck, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.FragRate(cluster.DefaultFragCores)
	if err := c.SetHealth(0, cluster.Down); err != nil {
		t.Fatal(err)
	}
	// The stuck VM's own plan entry is stale (its destination is the now-
	// degraded PM0), so it classifies evacuation-required in the walk.
	plan := []sim.Migration{
		{VM: mover, FromPM: 1, FromNuma: 0, ToPM: 2},
		{VM: stuck, FromPM: 0, FromNuma: 0, ToPM: 0},
	}
	rp := RepairPlanObjective(c, plan, sim.FR16())
	if rp.Stats.EvacFailed != 0 || rp.Stats.Evacuated != 1 {
		t.Fatalf("stats %+v, want the late rescue to move EvacFailed to Evacuated", rp.Stats)
	}
	live := c.Clone()
	if applied, skipped := sim.ApplyPlan(live, rp.Plan); skipped != 0 || applied != len(rp.Plan) {
		t.Fatalf("applied %d/%d, skipped %d", applied, len(rp.Plan), skipped)
	}
	if len(live.PMs[0].VMs) != 0 {
		t.Fatal("stuck VM not rescued")
	}
}
