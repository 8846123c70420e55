// Quickstart: build a small cluster, measure its fragment rate, train a
// tiny VMR2L agent for a few PPO updates, and compare it against the
// production heuristic. This is the five-minute tour of the library.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/eval"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

func main() {
	log.SetFlags(0)
	// 1. Synthesize a small cluster mapping: PMs with two NUMAs each, VMs
	//    from the paper's Table 1 flavors, fragmented by churn.
	rng := rand.New(rand.NewSource(28))
	profile := trace.MustProfile("tiny")
	mapping := profile.GenerateMapping(rng)
	fmt.Printf("cluster: %d PMs, %d VMs, 16-core fragment rate %.4f\n",
		len(mapping.PMs), len(mapping.VMs), mapping.FragRate(cluster.DefaultFragCores))

	// 2. The rescheduling environment: an episode is MNL migration steps.
	// Each solve runs under its own context carrying the paper's five-second
	// latency budget.
	const mnl = 6
	envCfg := sim.DefaultConfig(mnl)
	budget := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), solver.FiveSecondLimit)
	}

	// 3. Baseline: the filtering+scoring heuristic used in production.
	haCtx, haCancel := budget()
	haRes, err := solver.Evaluate(haCtx, heuristics.HA{}, mapping, envCfg)
	haCancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HA:    FR %.4f -> %.4f in %d migrations (%s)\n",
		haRes.InitialFR, haRes.FinalFR, haRes.Steps, haRes.Elapsed.Round(1000))

	// 4. Train a small VMR2L agent with PPO on a handful of mappings.
	train := make([]*cluster.Cluster, 4)
	for i := range train {
		train[i] = profile.GenerateMapping(rng)
	}
	model := policy.New(policy.Config{
		DModel: 16, Hidden: 32, Blocks: 1,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: 7,
	})
	trainCfg := rl.DefaultConfig()
	trainCfg.RolloutSteps = 48
	trainCfg.LR = 1e-3
	trainer := rl.NewTrainer(model, trainCfg)
	fmt.Println("training VMR2L (25 PPO updates)...")
	if _, err := trainer.Train(train, envCfg, 25, nil); err != nil {
		log.Fatal(err)
	}

	// 5. Deploy greedily on the held-out mapping (a fresh budget: training
	//    time must not eat into inference time).
	agent := &policy.Agent{Model: model, Opts: policy.SampleOpts{Greedy: true}, EarlyStop: true}
	rlCtx, rlCancel := budget()
	rlRes, err := solver.Evaluate(rlCtx, agent, mapping, envCfg)
	rlCancel()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VMR2L: FR %.4f -> %.4f in %d migrations (%s)\n",
		rlRes.InitialFR, rlRes.FinalFR, rlRes.Steps, rlRes.Elapsed.Round(1000))

	// 6. Risk-seeking evaluation: sample several trajectories in the
	//    deterministic simulator and deploy only the best (section 3.4).
	out := eval.Run(model, mapping, envCfg, eval.Options{Trajectories: 16, Seed: 9})
	fmt.Printf("VMR2L risk-seeking (K=16): FR %.4f -> %.4f\n", rlRes.InitialFR, out.BestValue)
	fmt.Println("best plan:")
	for _, m := range out.BestPlan {
		fmt.Printf("  move vm%d: pm%d -> pm%d\n", m.VM, m.FromPM, m.ToPM)
	}
}
