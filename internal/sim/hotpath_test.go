package sim

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
)

func hotTestCluster(seed int64) *cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(5, cluster.PMSmall)
	for i := 0; i < 18; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		for try := 0; try < 5; try++ {
			pm := rng.Intn(len(c.PMs))
			numa := rng.Intn(cluster.NumasPerPM)
			if c.VMs[id].Numas == 2 {
				numa = 0
			}
			if c.Place(id, pm, numa) == nil {
				break
			}
		}
	}
	return c
}

// TestExtractIntoMatchesExtract: re-extraction into a reused buffer must
// produce exactly the rows a fresh extraction does, before and after state
// mutation, and across shape changes.
func TestExtractIntoMatchesExtract(t *testing.T) {
	c := hotTestCluster(1)
	var reused Features
	for round := 0; round < 3; round++ {
		ExtractInto(&reused, c)
		fresh := Extract(c)
		if len(fresh.PM) != len(reused.PM) || len(fresh.VM) != len(reused.VM) {
			t.Fatalf("round %d: shape mismatch", round)
		}
		for i := range fresh.PM {
			for j := range fresh.PM[i] {
				if fresh.PM[i][j] != reused.PM[i][j] {
					t.Fatalf("round %d: PM[%d][%d] %g != %g", round, i, j, reused.PM[i][j], fresh.PM[i][j])
				}
			}
		}
		for v := range fresh.VM {
			for j := range fresh.VM[v] {
				if fresh.VM[v][j] != reused.VM[v][j] {
					t.Fatalf("round %d: VM[%d][%d] %g != %g", round, v, j, reused.VM[v][j], fresh.VM[v][j])
				}
			}
			if fresh.HostPM[v] != reused.HostPM[v] {
				t.Fatalf("round %d: HostPM[%d] %d != %d", round, v, reused.HostPM[v], fresh.HostPM[v])
			}
		}
		// Mutate the state so the next round extracts different features.
		for vm := range c.VMs {
			moved := false
			for pm := range c.PMs {
				if c.CanHost(vm, pm) {
					if c.Migrate(vm, pm, cluster.DefaultFragCores) == nil {
						moved = true
					}
					break
				}
			}
			if moved {
				break
			}
		}
	}
	// Shape change: a smaller cluster reuses the larger buffer.
	small := hotTestCluster(2)
	small = smallTruncate(small)
	ExtractInto(&reused, small)
	fresh := Extract(small)
	if len(reused.PM) != len(fresh.PM) || len(reused.VM) != len(fresh.VM) {
		t.Fatalf("shape change: got %dx%d want %dx%d", len(reused.PM), len(reused.VM), len(fresh.PM), len(fresh.VM))
	}
	for v := range fresh.VM {
		for j := range fresh.VM[v] {
			if fresh.VM[v][j] != reused.VM[v][j] {
				t.Fatalf("shape change: VM[%d][%d] %g != %g", v, j, reused.VM[v][j], fresh.VM[v][j])
			}
		}
	}
}

// smallTruncate builds a genuinely smaller cluster (fewer PMs and VMs).
func smallTruncate(c *cluster.Cluster) *cluster.Cluster {
	s := cluster.New(2, cluster.PMSmall)
	for i := 0; i < 4 && i < len(c.VMs); i++ {
		id := s.AddVM(cluster.VMType{CPU: c.VMs[i].CPU, Mem: c.VMs[i].Mem, Numas: c.VMs[i].Numas})
		numa := 0
		if s.VMs[id].Numas == 1 {
			numa = i % cluster.NumasPerPM
		}
		_ = s.Place(id, i%2, numa)
	}
	return s
}

// TestExtractIntoSteadyStateAllocs pins the zero-allocation guarantee of
// re-extraction.
func TestExtractIntoSteadyStateAllocs(t *testing.T) {
	c := hotTestCluster(3)
	var f Features
	ExtractInto(&f, c)
	if allocs := testing.AllocsPerRun(100, func() { ExtractInto(&f, c) }); allocs > 0 {
		t.Fatalf("steady-state ExtractInto allocates %v times", allocs)
	}
}

// TestForkReleaseRoundTrip: a forked env must be independent, and Release
// must make subsequent forks allocation-light without corrupting state.
func TestForkReleaseRoundTrip(t *testing.T) {
	env := New(hotTestCluster(4), DefaultConfig(6))
	for i := 0; i < 10; i++ {
		f := env.Fork()
		// Mutate the fork; the parent must not change.
		before := env.FragRate()
		for vm := range f.Cluster().VMs {
			done := false
			for pm := range f.Cluster().PMs {
				if f.Cluster().CanHost(vm, pm) {
					if _, _, err := f.Step(vm, pm); err != nil {
						t.Fatal(err)
					}
					done = true
					break
				}
			}
			if done {
				break
			}
		}
		if env.FragRate() != before {
			t.Fatal("fork mutation leaked into parent")
		}
		if f.StepsTaken() != env.StepsTaken()+1 {
			t.Fatalf("fork steps %d, parent %d", f.StepsTaken(), env.StepsTaken())
		}
		f.Release()
	}
	if err := env.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResetRestoresInitialState: after arbitrary steps, Reset must restore
// the exact initial mapping (via CopyFrom, not a fresh clone).
func TestResetRestoresViaCopyFrom(t *testing.T) {
	init := hotTestCluster(5)
	env := New(init, DefaultConfig(4))
	wantFR := env.FragRate()
	for i := 0; i < 3; i++ {
		stepped := false
		for vm := range env.Cluster().VMs {
			for pm := range env.Cluster().PMs {
				if env.Cluster().CanHost(vm, pm) {
					if _, _, err := env.Step(vm, pm); err != nil {
						t.Fatal(err)
					}
					stepped = true
					break
				}
			}
			if stepped {
				break
			}
		}
	}
	env.Reset()
	if env.StepsTaken() != 0 || env.Done() || len(env.Plan()) != 0 {
		t.Fatal("reset did not clear episode state")
	}
	if env.FragRate() != wantFR {
		t.Fatalf("reset FR %v != initial %v", env.FragRate(), wantFR)
	}
	if err := env.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
	// The restored cluster must equal the initial mapping VM by VM.
	for i := range init.VMs {
		if env.Cluster().VMs[i].PM != env.Initial().VMs[i].PM ||
			env.Cluster().VMs[i].Numa != env.Initial().VMs[i].Numa {
			t.Fatalf("vm %d: reset placement (%d,%d) != initial (%d,%d)", i,
				env.Cluster().VMs[i].PM, env.Cluster().VMs[i].Numa,
				env.Initial().VMs[i].PM, env.Initial().VMs[i].Numa)
		}
	}
	if allocs := testing.AllocsPerRun(100, env.Reset); allocs > 0 {
		t.Fatalf("steady-state Reset allocates %v times", allocs)
	}
}

// TestBestActionMatchesTopActions: the zero-alloc scan must agree with the
// sorted enumeration's head.
func TestBestActionMatchesTopActions(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := hotTestCluster(seed)
		obj := FR16()
		best, ok := BestAction(c, obj)
		top := TopActions(c, obj, 1)
		if !ok {
			if len(top) != 0 {
				t.Fatalf("seed %d: BestAction none, TopActions %v", seed, top[0])
			}
			continue
		}
		if len(top) == 0 {
			t.Fatalf("seed %d: BestAction %v, TopActions empty", seed, best)
		}
		if best != top[0] {
			t.Fatalf("seed %d: BestAction %v != TopActions[0] %v", seed, best, top[0])
		}
	}
}

// TestHotPathAllocs pins the per-call heap allocations of the environment
// operations a rollout repeats: a Step and a pooled Fork+Release allocate
// nothing once warm, a Fork the pool cannot serve allocates a fixed handful
// (the env and its cluster's flat slices), and a fresh Extract allocates
// only its result's buffers.
func TestHotPathAllocs(t *testing.T) {
	env := New(hotTestCluster(6), Config{MNL: 1 << 30, Obj: FR16()})
	c := env.Cluster()
	vm, pmA, pmB := -1, -1, -1
	for v := 0; v < len(c.VMs) && vm < 0; v++ {
		for pm := range c.PMs {
			if c.VMs[v].Placed() && c.CanHost(v, pm) {
				vm, pmA, pmB = v, c.VMs[v].PM, pm
				break
			}
		}
	}
	if vm < 0 {
		t.Fatal("fixture has no movable VM")
	}
	// vm bounces between pmA and pmB: the move back is legal because pmA
	// hosted it a step earlier.
	step := func() {
		to := pmB
		if env.Cluster().VMs[vm].PM == pmB {
			to = pmA
		}
		if _, _, err := env.Step(vm, to); err != nil {
			t.Fatal(err)
		}
	}
	// Grow the recorded plan's capacity past the measured steps, then start
	// the episode over, so appends to the plan reuse that capacity.
	for i := 0; i < 256; i++ {
		step()
	}
	env.Reset()
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Step", 0, step},
		{"Fork", 6, func() { _ = env.Fork() }},
		{"Fork+Release", 0, func() { env.Fork().Release() }},
		{"Extract", 4, func() { _ = Extract(env.Cluster()) }},
	} {
		if tc.name == "Fork+Release" && raceDetectorEnabled {
			continue // the fork pool drops items at random under the race detector
		}
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocs per call, want <= %v", tc.name, got, tc.max)
		}
	}
}
