package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// bruteForceBest exhaustively enumerates all migration sequences up to depth
// and returns the minimum reachable 16-core fragment.
func bruteForceBest(c *cluster.Cluster, depth int) int {
	best := c.Fragment(16)
	if depth == 0 {
		return best
	}
	for vm := range c.VMs {
		if !c.VMs[vm].Placed() {
			continue
		}
		for pm := range c.PMs {
			if !c.CanHost(vm, pm) {
				continue
			}
			cp := c.Clone()
			if err := cp.Migrate(vm, pm, 16); err != nil {
				continue
			}
			if got := bruteForceBest(cp, depth-1); got < best {
				best = got
			}
		}
	}
	return best
}

// microMapping builds a small random mapping suitable for exhaustive search.
func microMapping(seed int64) *cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(3, cluster.PMType{CPUPerNuma: 24, MemPerNuma: 64})
	types := []cluster.VMType{
		{Name: "s", CPU: 2, Mem: 4, Numas: 1},
		{Name: "m", CPU: 4, Mem: 8, Numas: 1},
		{Name: "l", CPU: 8, Mem: 16, Numas: 1},
	}
	for i := 0; i < 8; i++ {
		id := c.AddVM(types[rng.Intn(len(types))])
		for a := 0; a < 6; a++ {
			if c.Place(id, rng.Intn(3), rng.Intn(2)) == nil {
				break
			}
		}
	}
	return c
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		c := microMapping(seed)
		const depth = 2
		want := bruteForceBest(c, depth)
		s := &Solver{AllowLoss: true} // exhaustive
		plan := s.Search(context.Background(), c, sim.FR16(), depth)
		cp := c.Clone()
		for _, a := range plan {
			if err := cp.Migrate(a.VM, a.PM, 16); err != nil {
				t.Logf("plan action failed: %v", err)
				return false
			}
		}
		if got := cp.Fragment(16); got != want {
			t.Logf("B&B fragment %d != brute force %d (seed %d)", got, want, seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchDoesNotMutateInput(t *testing.T) {
	c := microMapping(1)
	before := c.Fragment(16)
	s := &Solver{AllowLoss: true}
	s.Search(context.Background(), c, sim.FR16(), 2)
	if c.Fragment(16) != before {
		t.Fatal("Search mutated input cluster")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRespectsMNL(t *testing.T) {
	c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(2)))
	env := sim.New(c, sim.DefaultConfig(3))
	s := &Solver{Beam: 4, AllowLoss: true, MaxNodes: 3000}
	if err := s.Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if env.StepsTaken() > 3 {
		t.Fatalf("steps %d > MNL 3", env.StepsTaken())
	}
	if env.FragRate() > c.FragRate(16) {
		t.Error("B&B made fragment rate worse")
	}
}

func TestBeamAnytimeNeverWorseThanGreedyOne(t *testing.T) {
	// Beam=1 without loss is greedy; a wider beam with loss allowed must be
	// at least as good on the same instance.
	c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(3)))
	greedy := &Solver{Beam: 1, MaxNodes: 5000}
	wide := &Solver{Beam: 6, AllowLoss: true, MaxNodes: 20000}
	envG := sim.New(c, sim.DefaultConfig(4))
	envW := sim.New(c, sim.DefaultConfig(4))
	if err := greedy.Solve(context.Background(), envG); err != nil {
		t.Fatal(err)
	}
	if err := wide.Solve(context.Background(), envW); err != nil {
		t.Fatal(err)
	}
	if envW.FragRate() > envG.FragRate()+1e-9 {
		t.Errorf("wide beam FR %v worse than greedy FR %v", envW.FragRate(), envG.FragRate())
	}
}

func TestSearchGoal(t *testing.T) {
	c := microMapping(5)
	s := &Solver{AllowLoss: true}
	// Find the best reachable FR in 3 moves, then ask SearchGoal for it.
	plan := s.Search(context.Background(), c, sim.FR16(), 3)
	cp := c.Clone()
	for _, a := range plan {
		if err := cp.Migrate(a.VM, a.PM, 16); err != nil {
			t.Fatal(err)
		}
	}
	goal := cp.FragRate(16)
	got := s.SearchGoal(context.Background(), c, sim.FR16(), goal, 3)
	if got == nil {
		t.Fatal("SearchGoal found no plan for a reachable goal")
	}
	if len(got) > len(plan) {
		t.Errorf("goal plan length %d > search plan %d", len(got), len(plan))
	}
	// Already-satisfied goal needs zero moves.
	if g := s.SearchGoal(context.Background(), c, sim.FR16(), 1.0, 3); g == nil || len(g) != 0 {
		t.Errorf("trivial goal should return empty plan, got %v", g)
	}
	// Impossible goal yields nil.
	if g := s.SearchGoal(context.Background(), c, sim.FR16(), -0.5, 2); g != nil {
		t.Errorf("impossible goal returned %v", g)
	}
}

func TestMaxNodesBudget(t *testing.T) {
	c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(7)))
	s := &Solver{AllowLoss: true, MaxNodes: 50}
	plan := s.Search(context.Background(), c, sim.FR16(), 10)
	// With a tiny budget the search still returns a (possibly empty) valid plan.
	cp := c.Clone()
	for _, a := range plan {
		if err := cp.Migrate(a.VM, a.PM, 16); err != nil {
			t.Fatalf("budgeted plan has illegal action: %v", err)
		}
	}
	if cp.Fragment(16) > c.Fragment(16) {
		t.Error("budgeted plan worsened the objective")
	}
}

func TestPOPStaysWithinPartitions(t *testing.T) {
	c := trace.MustProfile("medium-small").GenerateMapping(rand.New(rand.NewSource(8)))
	env := sim.New(c, sim.DefaultConfig(8))
	p := POP{Parts: 4, Seed: 42, Inner: Solver{Beam: 3, MaxNodes: 8000, AllowLoss: true}}
	if err := p.Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the partition and check every migration stayed inside.
	rng := rand.New(rand.NewSource(42))
	part := make([]int, len(c.PMs))
	for i := range part {
		part[i] = rng.Intn(4)
	}
	for _, m := range env.Plan() {
		if part[m.FromPM] != part[m.ToPM] {
			t.Fatalf("migration crossed partitions: %+v", m)
		}
	}
	if env.FragRate() > c.FragRate(16)+1e-9 {
		t.Error("POP worsened FR")
	}
}

func TestPOPSuboptimalVsFullSolver(t *testing.T) {
	// The defining failure mode: POP cannot move VMs across partitions, so
	// with the same node budget it should not beat the unpartitioned solver
	// on average (paper section 5.2).
	var popFR, fullFR float64
	const n = 4
	for i := 0; i < n; i++ {
		c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(int64(100 + i))))
		envP := sim.New(c, sim.DefaultConfig(6))
		envF := sim.New(c, sim.DefaultConfig(6))
		p := POP{Parts: 3, Seed: int64(i), Inner: Solver{Beam: 4, MaxNodes: 12000, AllowLoss: true}}
		full := &Solver{Beam: 4, MaxNodes: 12000, AllowLoss: true}
		if err := p.Solve(context.Background(), envP); err != nil {
			t.Fatal(err)
		}
		if err := full.Solve(context.Background(), envF); err != nil {
			t.Fatal(err)
		}
		popFR += envP.FragRate()
		fullFR += envF.FragRate()
	}
	if fullFR > popFR+1e-9 {
		t.Errorf("full solver FR %.4f worse than POP %.4f", fullFR/n, popFR/n)
	}
}

func TestPerMoveBoundAdmissible(t *testing.T) {
	// No single migration's gain may exceed the bound.
	f := func(seed int64) bool {
		c := microMapping(seed)
		for _, obj := range []sim.Objective{sim.FR16(), sim.MixedVMType(0.5), sim.MixedResource(0.3)} {
			bound := perMoveBound(obj)
			for _, a := range sim.TopActions(c, obj, 0) {
				if a.Gain > bound+1e-9 {
					t.Logf("gain %v exceeds bound %v", a.Gain, bound)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterScoreMatchesFragment(t *testing.T) {
	c := microMapping(9)
	want := float64(c.Fragment(16)) / 64.0
	if got := clusterScore(c, sim.FR16()); math.Abs(got-want) > 1e-12 {
		t.Fatalf("clusterScore = %v, want %v", got, want)
	}
}
