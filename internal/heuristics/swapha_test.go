package heuristics

import (
	"context"
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

var _ solver.Solver = SwapHA{}

// swapDeadlock builds two PMs where only an atomic exchange reduces
// fragments (mirrors the construction in internal/sim swap tests).
func swapDeadlock(t *testing.T) *cluster.Cluster {
	t.Helper()
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 16, MemPerNuma: 64})
	place := func(typ cluster.VMType, pm, numa int) {
		id := c.AddVM(typ)
		if err := c.Place(id, pm, numa); err != nil {
			t.Fatal(err)
		}
	}
	place(cluster.VMType{CPU: 8, Mem: 8, Numas: 1}, 0, 0) // A
	place(cluster.VMType{CPU: 6, Mem: 6, Numas: 1}, 0, 0) // filler: PM0 2 free
	place(cluster.VMType{CPU: 4, Mem: 4, Numas: 1}, 1, 0) // B
	place(cluster.VMType{CPU: 8, Mem: 8, Numas: 1}, 1, 0) // filler: PM1 4 free
	place(cluster.VMType{CPU: 16, Mem: 16, Numas: 1}, 0, 1)
	place(cluster.VMType{CPU: 16, Mem: 16, Numas: 1}, 1, 1)
	return c
}

func TestSwapHABreaksDeadlock(t *testing.T) {
	c := swapDeadlock(t)
	// Plain HA is stuck: no single migration is feasible at all.
	haRes, err := solver.Evaluate(context.Background(), HA{}, c, sim.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if haRes.Steps != 0 {
		t.Fatalf("HA found %d moves on a deadlocked cluster", haRes.Steps)
	}
	// SwapHA exchanges A and B: fragments 2+4=6 -> (2+8-4)%16 + (4+4-8)%16 = 6.
	// The swap is feasible; whether it improves depends on sizes, so check
	// the solver at least acts and leaves a valid cluster.
	env := sim.New(c, sim.DefaultConfig(4))
	if err := (SwapHA{TopK: 8}).Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if err := env.Cluster().Validate(); err != nil {
		t.Fatal(err)
	}
	if env.FragRate() > c.FragRate(16)+1e-9 {
		t.Errorf("SwapHA worsened FR: %v -> %v", c.FragRate(16), env.FragRate())
	}
}

func TestSwapHANeverWorseThanHA(t *testing.T) {
	var haSum, swapSum float64
	for seed := int64(0); seed < 4; seed++ {
		c := trace.MustProfile("tiny").GenerateFragmented(rand.New(rand.NewSource(seed)), 0.12, 10)
		h, err := solver.Evaluate(context.Background(), HA{}, c, sim.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.Evaluate(context.Background(), SwapHA{TopK: 8}, c, sim.DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		haSum += h.FinalFR
		swapSum += s.FinalFR
	}
	// Swaps strictly extend the action set; the greedy variant should not
	// lose on average by a meaningful margin.
	if swapSum > haSum+0.02*4 {
		t.Errorf("SwapHA mean FR %.4f much worse than HA %.4f", swapSum/4, haSum/4)
	}
}

func TestSwapHAPlanReplay(t *testing.T) {
	c := trace.MustProfile("tiny").GenerateFragmented(rand.New(rand.NewSource(5)), 0.12, 10)
	res, err := solver.Evaluate(context.Background(), SwapHA{TopK: 6}, c, sim.DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	fresh := c.Clone()
	applied, skipped := sim.ApplyPlan(fresh, res.Plan)
	if skipped != 0 {
		t.Fatalf("replay skipped %d of %d", skipped, applied+skipped)
	}
	if got := fresh.FragRate(16); got != res.FinalFR {
		t.Errorf("replayed FR %v != solver FR %v", got, res.FinalFR)
	}
}
