// Package eval implements VMR2L's risk-seeking evaluation (paper section
// 3.4): because the simulator is a perfect world model, many trajectories
// can be sampled from the stochastic policy and only the best one deployed.
// Action thresholding masks low-probability candidates so sampled
// trajectories avoid sub-optimal tail actions.
package eval

import (
	"context"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// Options configures risk-seeking evaluation.
type Options struct {
	// Trajectories is the number of sampled rollouts K (the paper samples
	// up to ~100; 16 in 2.2s with 8 GPUs).
	Trajectories int
	// VMQuantile / PMQuantile apply action thresholding; 0 disables.
	VMQuantile float64
	PMQuantile float64
	Seed       int64
}

// Outcome is the result of one risk-seeking evaluation.
type Outcome struct {
	BestValue  float64
	BestPlan   []sim.Migration
	MeanValue  float64
	Trajectory int // index of the winning rollout
}

// Run samples K trajectories of the policy on init and returns the best.
// The first trajectory is greedy (the deployment fallback); the rest sample
// from π(·|s), optionally thresholded.
func Run(m *policy.Model, init *cluster.Cluster, cfg sim.Config, opts Options) Outcome {
	return RunContext(context.Background(), m, init, cfg, opts)
}

// RunContext is Run under a context: rollouts still in flight when ctx
// expires stop early, and the best among what completed (even partially)
// wins. It is the offline risk-seeking path (the evaluation tools and the
// paper experiments); the service does not serve K-trajectory sampling yet.
//
// All K trajectories roll in lock-step on one goroutine
// (policy.Model.Rollout): each wave stacks the K environments' rows into one
// forward, whose kernels parallelize across GOMAXPROCS for large batches.
// Trajectory i samples from seed Seed+9973·i, so its plan is the one a
// standalone policy.Agent with that seed would produce.
func RunContext(ctx context.Context, m *policy.Model, init *cluster.Cluster, cfg sim.Config, opts Options) Outcome {
	k := max(opts.Trajectories, 1)
	envs := make([]*sim.Env, k)
	rngs := make([]*rand.Rand, k)
	sampleOpts := make([]policy.SampleOpts, k)
	for i := range envs {
		envs[i] = sim.New(init, cfg)
		rngs[i] = rand.New(rand.NewSource(opts.Seed + int64(i)*9973))
		sampleOpts[i] = policy.SampleOpts{
			Greedy:     i == 0,
			VMQuantile: opts.VMQuantile,
			PMQuantile: opts.PMQuantile,
		}
	}
	ic := policy.AcquireCtx()
	_ = m.Rollout(ctx, m.WaveOn(ic), envs, rngs, sampleOpts, false)
	ic.Release()
	out := Outcome{BestValue: envs[0].Value(), BestPlan: envs[0].Plan()}
	for i, env := range envs {
		v := env.Value()
		out.MeanValue += v
		if v < out.BestValue {
			out.BestValue, out.BestPlan, out.Trajectory = v, env.Plan(), i
		}
	}
	out.MeanValue /= float64(k)
	return out
}

// GridSearchThresholds evaluates the quantile grid of the paper (section
// 5.3: {0.95, 0.98, 0.99, 0.995} for both stages) on validation mappings and
// returns the pair minimizing mean best value.
func GridSearchThresholds(m *policy.Model, val []*cluster.Cluster, cfg sim.Config, k int, seed int64) (vmQ, pmQ float64) {
	grid := []float64{0.95, 0.98, 0.99, 0.995}
	best := 0.0
	first := true
	for _, vq := range grid {
		for _, pq := range grid {
			total := 0.0
			for i, init := range val {
				o := Run(m, init, cfg, Options{
					Trajectories: k, VMQuantile: vq, PMQuantile: pq, Seed: seed + int64(i),
				})
				total += o.BestValue
			}
			if first || total < best {
				best, vmQ, pmQ = total, vq, pq
				first = false
			}
		}
	}
	return vmQ, pmQ
}
