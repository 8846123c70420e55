package eval

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

func testModel() *policy.Model {
	return policy.New(policy.Config{
		DModel: 16, Hidden: 24, Blocks: 1,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: 5,
	})
}

func testMapping(seed int64) *cluster.Cluster {
	return trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(seed)))
}

func TestRiskSeekingBestNotWorseThanMean(t *testing.T) {
	m := testModel()
	c := testMapping(1)
	o := Run(m, c, sim.DefaultConfig(5), Options{Trajectories: 8, Seed: 1})
	if o.BestValue > o.MeanValue+1e-12 {
		t.Fatalf("best %v worse than mean %v", o.BestValue, o.MeanValue)
	}
	if len(o.BestPlan) > 5 {
		t.Fatalf("plan longer than MNL: %d", len(o.BestPlan))
	}
}

func TestMoreTrajectoriesNeverHurt(t *testing.T) {
	m := testModel()
	c := testMapping(2)
	cfg := sim.DefaultConfig(5)
	// With identical seeds, K=8 includes the K=2 trajectories plus more, so
	// min over the larger set cannot be worse.
	small := Run(m, c, cfg, Options{Trajectories: 2, Seed: 7})
	big := Run(m, c, cfg, Options{Trajectories: 8, Seed: 7})
	if big.BestValue > small.BestValue+1e-12 {
		t.Fatalf("K=8 best %v worse than K=2 best %v", big.BestValue, small.BestValue)
	}
}

// TestBatchedMatchesSequential pins the lock-step rollout against its
// specification: K independent single-environment agents run one after the
// other, trajectory i with seed Seed+9973·i and greedy only at i == 0. Best
// value, mean, winning trajectory and plan must all match exactly.
func TestBatchedMatchesSequential(t *testing.T) {
	m := testModel()
	cfg := sim.DefaultConfig(5)
	for _, opts := range []Options{
		{Trajectories: 6, Seed: 11},
		{Trajectories: 6, VMQuantile: 0.95, PMQuantile: 0.95, Seed: 9},
	} {
		c := testMapping(3)
		var want Outcome
		for i := 0; i < opts.Trajectories; i++ {
			env := sim.New(c, cfg)
			ag := policy.Agent{Model: m, Seed: opts.Seed + int64(i)*9973, Opts: policy.SampleOpts{
				Greedy: i == 0, VMQuantile: opts.VMQuantile, PMQuantile: opts.PMQuantile,
			}}
			if err := ag.Solve(context.Background(), env); err != nil {
				t.Fatal(err)
			}
			v := env.Value()
			want.MeanValue += v
			if i == 0 || v < want.BestValue {
				want.BestValue, want.BestPlan, want.Trajectory = v, env.Plan(), i
			}
		}
		want.MeanValue /= float64(opts.Trajectories)

		got := Run(m, c, cfg, opts)
		if got.BestValue != want.BestValue || got.MeanValue != want.MeanValue || got.Trajectory != want.Trajectory {
			t.Fatalf("%+v: Run (%v, %v, traj %d) != independent agents (%v, %v, traj %d)", opts,
				got.BestValue, got.MeanValue, got.Trajectory, want.BestValue, want.MeanValue, want.Trajectory)
		}
		if !slices.Equal(got.BestPlan, want.BestPlan) {
			t.Fatalf("%+v: plan %+v != independent agent's %+v", opts, got.BestPlan, want.BestPlan)
		}
	}
}

func TestBestPlanReplaysToBestValue(t *testing.T) {
	m := testModel()
	c := testMapping(4)
	cfg := sim.DefaultConfig(5)
	o := Run(m, c, cfg, Options{Trajectories: 6, Seed: 13, VMQuantile: 0.95, PMQuantile: 0.95})
	replay := c.Clone()
	if _, skipped := sim.ApplyPlan(replay, o.BestPlan); skipped != 0 {
		t.Fatalf("replay skipped %d migrations", skipped)
	}
	if got := cfg.Obj.Value(replay); got != o.BestValue {
		t.Fatalf("replayed value %v != reported %v", got, o.BestValue)
	}
}

// TestRunContextExpiredDeadline pins the anytime contract at its edge: under
// a deadline that has already passed, RunContext still returns a plan that
// replays to the value it reports.
func TestRunContextExpiredDeadline(t *testing.T) {
	m := testModel()
	c := testMapping(4)
	cfg := sim.DefaultConfig(5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	o := RunContext(ctx, m, c, cfg, Options{Trajectories: 4, Seed: 13})
	replay := c.Clone()
	if _, skipped := sim.ApplyPlan(replay, o.BestPlan); skipped != 0 {
		t.Fatalf("replay skipped %d migrations", skipped)
	}
	if got := cfg.Obj.Value(replay); got != o.BestValue {
		t.Fatalf("replayed value %v != reported %v", got, o.BestValue)
	}
}

func TestGridSearchReturnsGridValues(t *testing.T) {
	m := testModel()
	val := []*cluster.Cluster{testMapping(5)}
	vq, pq := GridSearchThresholds(m, val, sim.DefaultConfig(3), 2, 1)
	valid := map[float64]bool{0.95: true, 0.98: true, 0.99: true, 0.995: true}
	if !valid[vq] || !valid[pq] {
		t.Fatalf("grid search returned off-grid values %v %v", vq, pq)
	}
}

func TestRandomPolicyValueBounded(t *testing.T) {
	c := testMapping(6)
	v := RandomPolicyValue(c, sim.DefaultConfig(4), 3)
	if v < 0 || v > 1 {
		t.Fatalf("random policy FR out of range: %v", v)
	}
}
