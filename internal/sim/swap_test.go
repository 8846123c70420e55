package sim

import (
	"errors"
	"math"
	"testing"

	"vmr2l/internal/cluster"
)

// deadlockCluster builds two PMs where neither VM can move alone but an
// atomic swap is feasible — the scenario motivating the paper's future-work
// swap extension.
func deadlockCluster(t *testing.T) (*cluster.Cluster, int, int) {
	t.Helper()
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 16, MemPerNuma: 64})
	place := func(typ cluster.VMType, pm, numa int) int {
		id := c.AddVM(typ)
		if err := c.Place(id, pm, numa); err != nil {
			t.Fatal(err)
		}
		return id
	}
	// PM0 NUMA0: A (8 cores) + filler (6) -> 2 free.
	a := place(cluster.VMType{CPU: 8, Mem: 8, Numas: 1}, 0, 0)
	place(cluster.VMType{CPU: 6, Mem: 6, Numas: 1}, 0, 0)
	// PM1 NUMA0: B (4 cores) + filler (8) -> 4 free.
	b := place(cluster.VMType{CPU: 4, Mem: 4, Numas: 1}, 1, 0)
	place(cluster.VMType{CPU: 8, Mem: 8, Numas: 1}, 1, 0)
	// Fill second NUMAs so BestNuma cannot dodge.
	place(cluster.VMType{CPU: 16, Mem: 16, Numas: 1}, 0, 1)
	place(cluster.VMType{CPU: 16, Mem: 16, Numas: 1}, 1, 1)
	return c, a, b
}

func TestSwapFeasibleWhereSinglesAreNot(t *testing.T) {
	c, a, b := deadlockCluster(t)
	e := New(c, DefaultConfig(4))
	// Neither single migration is legal: A (8) needs more than PM1's 4
	// free; B (4) needs more than PM0's 2 free.
	if e.Cluster().CanHost(a, 1) {
		t.Fatal("A should not fit PM1 directly")
	}
	if e.Cluster().CanHost(b, 0) {
		t.Fatal("B should not fit PM0 directly")
	}
	if !e.CanSwap(a, b) {
		t.Fatal("swap should be feasible")
	}
	r, done, err := e.SwapStep(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("episode should continue (2 of 4 steps used)")
	}
	if e.StepsTaken() != 2 {
		t.Fatalf("swap consumed %d steps, want 2", e.StepsTaken())
	}
	cc := e.Cluster()
	if cc.VMs[a].PM != 1 || cc.VMs[b].PM != 0 {
		t.Fatal("VMs not exchanged")
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Reward equals the exact 16-core fragment delta over the two PMs.
	before := float64(e.init.Fragment(16)) / 64
	after := float64(cc.Fragment(16)) / 64
	if math.Abs(r-(before-after)) > 1e-12 {
		t.Fatalf("swap reward %v != fragment delta %v", r, before-after)
	}
}

func TestSwapGainMatchesSwapStep(t *testing.T) {
	c, a, b := deadlockCluster(t)
	e := New(c, DefaultConfig(4))
	fr := e.FragRate()
	g, ok := e.SwapGain(a, b)
	if !ok {
		t.Fatal("SwapGain should succeed")
	}
	if e.FragRate() != fr || e.StepsTaken() != 0 {
		t.Fatal("SwapGain mutated state")
	}
	r, _, err := e.SwapStep(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-r) > 1e-12 {
		t.Fatalf("gain %v != reward %v", g, r)
	}
}

func TestSwapIllegalCases(t *testing.T) {
	c, a, b := deadlockCluster(t)
	e := New(c, DefaultConfig(4))
	if _, _, err := e.SwapStep(a, a); !errors.Is(err, ErrIllegal) {
		t.Error("self swap accepted")
	}
	if _, _, err := e.SwapStep(-1, b); !errors.Is(err, ErrIllegal) {
		t.Error("negative vm accepted")
	}
	// Same-PM swap.
	other := -1
	for i := range c.VMs {
		if i != a && c.VMs[i].PM == c.VMs[a].PM {
			other = i
			break
		}
	}
	if _, _, err := e.SwapStep(a, other); !errors.Is(err, ErrIllegal) {
		t.Error("same-PM swap accepted")
	}
	// MNL budget: with one step left, a swap must be rejected.
	e2 := New(c, DefaultConfig(1))
	if e2.CanSwap(a, b) {
		t.Error("CanSwap must respect remaining budget")
	}
	if _, _, err := e2.SwapStep(a, b); !errors.Is(err, ErrIllegal) {
		t.Error("over-budget swap accepted")
	}
}

func TestSwapPlanReplaysAtomically(t *testing.T) {
	c, a, b := deadlockCluster(t)
	e := New(c, DefaultConfig(4))
	if _, _, err := e.SwapStep(a, b); err != nil {
		t.Fatal(err)
	}
	plan := e.Plan()
	if len(plan) != 2 || !plan[0].Swap || !plan[1].Swap {
		t.Fatalf("swap plan malformed: %+v", plan)
	}
	fresh := c.Clone()
	applied, skipped := ApplyPlan(fresh, plan)
	if applied != 2 || skipped != 0 {
		t.Fatalf("replay: applied %d skipped %d", applied, skipped)
	}
	if fresh.VMs[a].PM != 1 || fresh.VMs[b].PM != 0 {
		t.Fatal("replayed swap did not exchange VMs")
	}
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	// If one VM exited meanwhile, the whole pair is skipped (atomicity).
	gone := c.Clone()
	if err := gone.Remove(a); err != nil {
		t.Fatal(err)
	}
	applied, skipped = ApplyPlan(gone, plan)
	if applied != 0 || skipped != 2 {
		t.Fatalf("stale replay: applied %d skipped %d, want 0/2", applied, skipped)
	}
	if gone.VMs[b].PM != 1 {
		t.Fatal("partial swap applied")
	}
}

func TestSwapRollbackLeavesStateIntact(t *testing.T) {
	// Construct a swap that fails at the last placement: B cannot return to
	// PM0 because even with A gone there is not enough memory.
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 16, MemPerNuma: 16})
	a := c.AddVM(cluster.VMType{CPU: 8, Mem: 2, Numas: 1})
	if err := c.Place(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	filler := c.AddVM(cluster.VMType{CPU: 2, Mem: 14, Numas: 1})
	if err := c.Place(filler, 0, 0); err != nil {
		t.Fatal(err)
	}
	b := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(b, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Fill second NUMAs.
	for pm := 0; pm < 2; pm++ {
		id := c.AddVM(cluster.VMType{CPU: 16, Mem: 16, Numas: 1})
		if err := c.Place(id, pm, 1); err != nil {
			t.Fatal(err)
		}
	}
	e := New(c, DefaultConfig(4))
	// PM0 NUMA0 after removing A: cpu 14 free but mem only 2+2=4... B needs
	// mem 8 -> infeasible; swap must fail and leave everything unchanged.
	if e.CanSwap(a, b) {
		t.Skip("construction no longer infeasible")
	}
	if _, _, err := e.SwapStep(a, b); !errors.Is(err, ErrIllegal) {
		t.Fatalf("expected ErrIllegal, got %v", err)
	}
	if e.Cluster().VMs[a].PM != 0 || e.Cluster().VMs[b].PM != 1 {
		t.Fatal("failed swap moved VMs")
	}
	if err := e.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
	if e.StepsTaken() != 0 {
		t.Fatal("failed swap consumed steps")
	}
}
