// Rescheduler: the paper's headline comparison in miniature. Runs every
// solver family — heuristic (HA, α-VBPP), exact (B&B), approximate (POP),
// search (MCTS), and learned (VMR2L with risk-seeking evaluation) — on the
// same mappings and prints an FR/latency table, the workload of Fig. 9.
//
//	go run ./examples/rescheduler
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/eval"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/mcts"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(7))
	profile := trace.MustProfile("tiny")
	const mnl = 6
	envCfg := sim.DefaultConfig(mnl)

	train := make([]*cluster.Cluster, 4)
	for i := range train {
		train[i] = profile.GenerateFragmented(rng, 0.15, 20)
	}
	test := make([]*cluster.Cluster, 3)
	for i := range test {
		test[i] = profile.GenerateFragmented(rng, 0.15, 20)
	}

	model := policy.New(policy.Config{
		DModel: 16, Hidden: 32, Blocks: 1,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: 1,
	})
	trainCfg := rl.DefaultConfig()
	trainCfg.RolloutSteps = 48
	trainCfg.LR = 1e-3
	fmt.Println("training VMR2L (12 PPO updates)...")
	if _, err := rl.NewTrainer(model, trainCfg).Train(train, envCfg, 12, nil); err != nil {
		log.Fatal(err)
	}

	solvers := []solver.Solver{
		heuristics.HA{},
		heuristics.VBPP{Alpha: 4},
		&exact.Solver{Beam: 6, AllowLoss: true, MaxNodes: 40000},
		exact.POP{Parts: 3, Seed: 1, Inner: exact.Solver{Beam: 4, AllowLoss: true, MaxNodes: 40000}},
		&mcts.Solver{Iterations: 64, Width: 6, Seed: 1},
		&policy.Agent{Model: model, Opts: policy.SampleOpts{Greedy: true}, Label: "VMR2L"},
	}
	initFR := 0.0
	for _, c := range test {
		initFR += c.FragRate(cluster.DefaultFragCores)
	}
	fmt.Printf("\n%-22s %8s %12s\n", "method", "FR", "time/mapping")
	fmt.Printf("%-22s %8.4f %12s\n", "initial", initFR/float64(len(test)), "-")
	for _, s := range solvers {
		var rs []solver.Result
		for _, c := range test {
			// Each solve gets the paper's five-second budget; slower engines
			// return their anytime best-so-far plan at the deadline.
			ctx, cancel := context.WithTimeout(context.Background(), solver.FiveSecondLimit)
			r, err := solver.Evaluate(ctx, s, c, envCfg)
			cancel()
			if err != nil {
				log.Fatal(err)
			}
			rs = append(rs, r)
		}
		fr, _, _, elapsed := solver.Mean(rs)
		fmt.Printf("%-22s %8.4f %12s\n", s.Meta().Name, fr, elapsed.Round(time.Microsecond))
	}

	// Risk-seeking evaluation: sample 8 trajectories, deploy the best.
	total := 0.0
	start := time.Now()
	for i, c := range test {
		out := eval.Run(model, c, envCfg, eval.Options{Trajectories: 8, Seed: int64(i)})
		total += out.BestValue
	}
	fmt.Printf("%-22s %8.4f %12s\n", "VMR2L risk-seek K=8", total/float64(len(test)),
		(time.Since(start) / time.Duration(len(test))).Round(time.Microsecond))
}
