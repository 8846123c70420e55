// Package eval implements VMR2L's risk-seeking evaluation (paper section
// 3.4): because the simulator is a perfect world model, many trajectories
// can be sampled from the stochastic policy and only the best one deployed.
// Action thresholding masks low-probability candidates so sampled
// trajectories avoid sub-optimal tail actions.
package eval

import (
	"context"
	"math/rand"
	"runtime"
	"sync"

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
	// Parallel runs rollouts on goroutines (the paper's multi-GPU analog).
	Parallel bool
	// Batched rolls all K trajectories in lock-step on one goroutine with a
	// single batched forward per wave (policy.Model.Rollout): the K
	// environments' rows stack into one GEMM chain, whose kernels themselves
	// parallelize across GOMAXPROCS for large batches. Trajectory-for-
	// trajectory identical to the sequential path (same per-trajectory rng
	// seeds and sample options). Takes precedence over Parallel.
	Batched bool
	Seed    int64
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
// wins. This is the deadline-aware entry the service's risk-seeking mode
// would use.
func RunContext(ctx context.Context, m *policy.Model, init *cluster.Cluster, cfg sim.Config, opts Options) Outcome {
	k := opts.Trajectories
	if k < 1 {
		k = 1
	}
	type result struct {
		value float64
		plan  []sim.Migration
	}
	results := make([]result, k)
	// runOne rolls trajectory i on a worker-owned environment: Reset is an
	// in-place restore (cluster.CopyFrom), so the per-trajectory cost never
	// re-clones the initial mapping.
	runOne := func(i int, env *sim.Env) {
		env.Reset()
		sampleOpts := policy.SampleOpts{
			Greedy:     i == 0,
			VMQuantile: opts.VMQuantile,
			PMQuantile: opts.PMQuantile,
		}
		ag := policy.Agent{Model: m, Opts: sampleOpts, Seed: opts.Seed + int64(i)*9973}
		_ = ag.Solve(ctx, env)
		results[i] = result{value: env.Value(), plan: append([]sim.Migration(nil), env.Plan()...)}
	}
	if opts.Batched {
		// Lock-step batching: one environment per trajectory, every wave one
		// stacked forward. Seeds and sample options match runOne exactly, so
		// the outcome is identical to the sequential path.
		envs := make([]*sim.Env, k)
		rngs := make([]*rand.Rand, k)
		sampleOpts := make([]policy.SampleOpts, k)
		for i := 0; i < k; i++ {
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
		for i, env := range envs {
			results[i] = result{value: env.Value(), plan: append([]sim.Migration(nil), env.Plan()...)}
		}
	} else if opts.Parallel {
		// Fan rollouts out over at most GOMAXPROCS workers (the paper's
		// multi-GPU analog): each worker reuses one environment and one
		// inference context across its share of the K trajectories. The
		// model is read-only during inference so sharing parameters is safe.
		workers := runtime.GOMAXPROCS(0)
		if workers > k {
			workers = k
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				env := sim.New(init, cfg)
				for i := range jobs {
					runOne(i, env)
				}
			}()
		}
		for i := 0; i < k; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	} else {
		env := sim.New(init, cfg)
		for i := 0; i < k; i++ {
			runOne(i, env)
		}
	}
	out := Outcome{BestValue: results[0].value, BestPlan: results[0].plan}
	for i, r := range results {
		out.MeanValue += r.value
		if r.value < out.BestValue {
			out.BestValue = r.value
			out.BestPlan = r.plan
			out.Trajectory = i
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

// RandomPolicyValue rolls a uniform-random legal policy once — the sanity
// baseline used in tests and the case-study tool.
func RandomPolicyValue(init *cluster.Cluster, cfg sim.Config, seed int64) float64 {
	env := sim.New(init, cfg)
	rng := rand.New(rand.NewSource(seed))
	for !env.Done() {
		acts := sim.TopActions(env.Cluster(), env.Objective(), 0)
		if len(acts) == 0 {
			break
		}
		a := acts[rng.Intn(len(acts))]
		if _, _, err := env.Step(a.VM, a.PM); err != nil {
			break
		}
	}
	return env.Value()
}
