package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmr2l/internal/cluster"
	"vmr2l/internal/trace"
)

func tinyMapping(seed int64) *cluster.Cluster {
	return trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(seed)))
}

// fork copies e mid-episode, so a test can try a step without disturbing e.
func fork(e *Env) *Env {
	return &Env{cfg: e.cfg, init: e.init, c: e.c.Clone(), step: e.step, done: e.done,
		plan: append([]Migration(nil), e.plan...)}
}

// extract builds the features of c into fresh buffers.
func extract(c *cluster.Cluster) *Features {
	f := &Features{}
	ExtractInto(f, c)
	return f
}

// greedyStep picks the legal (vm, pm) with the best immediate reward.
func greedyStep(e *Env) (int, int, bool) {
	bestVM, bestPM, best := -1, -1, math.Inf(-1)
	c := e.Cluster()
	for vm := range c.VMs {
		if !c.VMs[vm].Placed() {
			continue
		}
		for pm := range c.PMs {
			if !c.CanHost(vm, pm) {
				continue
			}
			f := fork(e)
			r, _, err := f.Step(vm, pm)
			if err != nil {
				continue
			}
			if r > best {
				bestVM, bestPM, best = vm, pm, r
			}
		}
	}
	return bestVM, bestPM, bestVM >= 0
}

func TestEpisodeLengthAndDone(t *testing.T) {
	c := tinyMapping(1)
	e := New(c, DefaultConfig(3))
	steps := 0
	for !e.Done() {
		vm, pm, ok := greedyStep(e)
		if !ok {
			t.Skip("no legal action on this mapping")
		}
		if _, _, err := e.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 3 {
			t.Fatal("episode exceeded MNL")
		}
	}
	if steps != 3 || e.StepsTaken() != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
	if _, _, err := e.Step(0, 0); !errors.Is(err, ErrDone) {
		t.Errorf("step after done: %v", err)
	}
	if len(e.Plan()) != 3 {
		t.Errorf("plan length = %d, want 3", len(e.Plan()))
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	c := tinyMapping(2)
	e := New(c, DefaultConfig(2))
	fr0 := e.FragRate()
	vm, pm, ok := greedyStep(e)
	if !ok {
		t.Skip("no legal action")
	}
	if _, _, err := e.Step(vm, pm); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if e.FragRate() != fr0 || e.StepsTaken() != 0 || e.Done() || len(e.Plan()) != 0 {
		t.Error("Reset did not restore initial state")
	}
	// Initial snapshot never mutated by stepping.
	if e.init.FragRate(16) != fr0 {
		t.Error("initial snapshot mutated")
	}
}

func TestIllegalActionsDoNotMutate(t *testing.T) {
	c := tinyMapping(3)
	e := New(c, DefaultConfig(5))
	fr := e.FragRate()
	if _, _, err := e.Step(-1, 0); !errors.Is(err, ErrIllegal) {
		t.Errorf("negative vm: %v", err)
	}
	if _, _, err := e.Step(0, 999); !errors.Is(err, ErrIllegal) {
		t.Errorf("pm out of range: %v", err)
	}
	// Move to own PM is illegal.
	src := e.Cluster().VMs[0].PM
	if _, _, err := e.Step(0, src); !errors.Is(err, ErrIllegal) {
		t.Errorf("self move: %v", err)
	}
	if e.FragRate() != fr || e.StepsTaken() != 0 {
		t.Error("illegal action mutated state")
	}
}

// TestRewardTelescoping: the undiscounted sum of dense rewards equals the
// total drop in (rescaled) fragment size between initial and final state —
// the property that makes Eq. 9 a dense decomposition of the FR objective.
func TestRewardTelescoping(t *testing.T) {
	f := func(seed int64) bool {
		c := tinyMapping(seed)
		e := New(c, DefaultConfig(6))
		total := 0.0
		rng := rand.New(rand.NewSource(seed + 99))
		for !e.Done() {
			// Random legal action.
			var acts [][2]int
			cl := e.Cluster()
			for vm := range cl.VMs {
				for pm := range cl.PMs {
					if cl.VMs[vm].Placed() && cl.CanHost(vm, pm) {
						acts = append(acts, [2]int{vm, pm})
					}
				}
			}
			if len(acts) == 0 {
				break
			}
			a := acts[rng.Intn(len(acts))]
			r, _, err := e.Step(a[0], a[1])
			if err != nil {
				return false
			}
			total += r
		}
		before := float64(e.init.Fragment(16)) / 64.0
		after := float64(e.Cluster().Fragment(16)) / 64.0
		return math.Abs(total-(before-after)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskSoundness(t *testing.T) {
	f := func(seed int64) bool {
		c := tinyMapping(seed)
		e := New(c, DefaultConfig(4))
		vmMask := e.VMMask()
		for vm, ok := range vmMask {
			pmMask := e.PMMask(vm)
			anyPM := false
			for pm, legal := range pmMask {
				if !legal {
					continue
				}
				anyPM = true
				f := fork(e)
				if _, _, err := f.Step(vm, pm); err != nil {
					t.Logf("masked-legal action failed: vm %d pm %d: %v", vm, pm, err)
					return false
				}
			}
			if ok && !anyPM {
				t.Logf("vm %d legal but no legal pm", vm)
				return false
			}
			if !ok && anyPM {
				t.Logf("vm %d illegal but pm mask non-empty", vm)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestFRGoalMode(t *testing.T) {
	c := tinyMapping(5)
	base := New(c, DefaultConfig(10))
	// Pick a reachable goal: run greedy for 10 steps and note the FR.
	for !base.Done() {
		vm, pm, ok := greedyStep(base)
		if !ok {
			break
		}
		if _, _, err := base.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
	}
	goal := base.FragRate() + 0.02
	e := New(c, Config{MNL: 10, UseFRGoal: true, FRGoal: goal})
	var lastReward float64
	for !e.Done() {
		vm, pm, ok := greedyStep(e)
		if !ok {
			break
		}
		r, _, err := e.Step(vm, pm)
		if err != nil {
			t.Fatal(err)
		}
		lastReward = r
	}
	if e.FragRate() <= goal {
		if lastReward < 9 {
			t.Errorf("goal reached but last reward %v missing +10 bonus", lastReward)
		}
		if e.StepsTaken() == 10 && !e.Done() {
			t.Error("episode should end at goal")
		}
	}
}

func TestMixedObjectiveValue(t *testing.T) {
	c := tinyMapping(6)
	fr16 := FR16().Value(c)
	if got := c.FragRate(16); math.Abs(fr16-got) > 1e-12 {
		t.Fatalf("FR16 objective %v != FragRate %v", fr16, got)
	}
	for _, lambda := range []float64{0, 0.4, 1} {
		mv := MixedVMType(lambda).Value(c)
		want := lambda*c.FragRate(64) + (1-lambda)*c.FragRate(16)
		if math.Abs(mv-want) > 1e-12 {
			t.Errorf("MixedVMType(%v) = %v, want %v", lambda, mv, want)
		}
		mr := MixedResource(lambda).Value(c)
		want = lambda*c.MemFragRate(64) + (1-lambda)*c.FragRate(16)
		if math.Abs(mr-want) > 1e-12 {
			t.Errorf("MixedResource(%v) = %v, want %v", lambda, mr, want)
		}
	}
}

func TestApplyPlanSkipsInfeasible(t *testing.T) {
	c := tinyMapping(7)
	e := New(c, DefaultConfig(4))
	for !e.Done() {
		vm, pm, ok := greedyStep(e)
		if !ok {
			break
		}
		if _, _, err := e.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
	}
	plan := e.Plan()
	if len(plan) == 0 {
		t.Skip("no plan")
	}
	// Apply to a fresh copy: all should apply.
	fresh := c.Clone()
	applied, skipped := ApplyPlan(fresh, plan)
	if skipped != 0 || applied != len(plan) {
		t.Fatalf("fresh apply: %d applied, %d skipped", applied, skipped)
	}
	if fresh.FragRate(16) != e.FragRate() {
		t.Errorf("replayed FR %v != env FR %v", fresh.FragRate(16), e.FragRate())
	}
	// Remove the first plan's VM: that migration must be skipped.
	changed := c.Clone()
	if err := changed.Remove(plan[0].VM); err != nil {
		t.Fatal(err)
	}
	_, skipped = ApplyPlan(changed, plan)
	if skipped == 0 {
		t.Error("expected at least one skipped migration after VM exit")
	}
	if err := changed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExtractFeatureShapes(t *testing.T) {
	c := tinyMapping(8)
	f := extract(c)
	if len(f.PM) != len(c.PMs) || len(f.VM) != len(c.VMs) {
		t.Fatalf("feature rows mismatch")
	}
	for _, row := range f.PM {
		if len(row) != PMFeatDim {
			t.Fatalf("pm feature dim = %d, want %d", len(row), PMFeatDim)
		}
		for _, x := range row {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("pm feature out of [0,1]: %v", x)
			}
		}
	}
	for v, row := range f.VM {
		if len(row) != VMFeatDim {
			t.Fatalf("vm feature dim = %d, want %d", len(row), VMFeatDim)
		}
		for _, x := range row {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("vm feature out of [0,1]: %v", x)
			}
		}
		if f.HostPM[v] != c.VMs[v].PM {
			t.Fatalf("hostPM mismatch for vm %d", v)
		}
	}
}

func TestExtractSingleNumaPadding(t *testing.T) {
	// A lone single-NUMA VM: NUMA-1 request features must be zero-padded.
	cl := cluster.New(2, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	id := cl.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := cl.Place(id, 0, 0); err != nil {
		t.Fatal(err)
	}
	id2 := cl.AddVM(cluster.VMType{CPU: 8, Mem: 16, Numas: 2})
	if err := cl.Place(id2, 1, 0); err != nil {
		t.Fatal(err)
	}
	f := extract(cl)
	// After min-max normalization the single-NUMA VM must have the minimum
	// (zero) in the NUMA-1 cpu/mem columns, the double-NUMA one the max.
	if f.VM[id][2] != 0 || f.VM[id][3] != 0 {
		t.Errorf("single-numa padding not minimal: %v", f.VM[id][:4])
	}
	if f.VM[id2][2] != 1 || f.VM[id2][3] != 1 {
		t.Errorf("double-numa numa1 request not maximal: %v", f.VM[id2][:4])
	}
}

func TestPenaltyStepConsumesStepOnIllegal(t *testing.T) {
	c := tinyMapping(10)
	e := New(c, DefaultConfig(2))
	fr := e.FragRate()
	// Illegal: move VM 0 to its own PM.
	src := e.Cluster().VMs[0].PM
	r, done, err := e.PenaltyStep(0, src, -5)
	if err != nil {
		t.Fatal(err)
	}
	if r != -5 {
		t.Fatalf("penalty reward = %v, want -5", r)
	}
	if done {
		t.Fatal("episode should continue after one of two steps")
	}
	if e.StepsTaken() != 1 {
		t.Fatalf("steps = %d, want 1 (illegal action consumes the step)", e.StepsTaken())
	}
	if e.FragRate() != fr {
		t.Fatal("illegal penalty step mutated cluster state")
	}
	// Second illegal action ends the episode.
	if _, done, err = e.PenaltyStep(0, src, -5); err != nil || !done {
		t.Fatalf("second penalty step: done=%v err=%v", done, err)
	}
	if _, _, err := e.PenaltyStep(0, src, -5); !errors.Is(err, ErrDone) {
		t.Fatalf("step after done: %v", err)
	}
}

func TestPenaltyStepLegalActionBehavesLikeStep(t *testing.T) {
	c := tinyMapping(11)
	e1 := New(c, DefaultConfig(3))
	e2 := New(c, DefaultConfig(3))
	vm, pm, ok := greedyStep(e1)
	if !ok {
		t.Skip("no legal action")
	}
	r1, _, err := e1.Step(vm, pm)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := e2.PenaltyStep(vm, pm, -5)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("legal PenaltyStep reward %v != Step reward %v", r2, r1)
	}
}
