// Command vmr2l-eval evaluates a trained checkpoint with risk-seeking
// sampling (paper section 3.4) against the HA heuristic on test mappings:
//
//	vmr2l-eval -ckpt vmr2l.ckpt -profile medium-small -mnl 20 -traj 16
//	vmr2l-eval -ckpt vmr2l.ckpt -export vmr2l-q8.ckpt -int8   # re-export, no eval
//
// It reports FR for one greedy trajectory, K sampled trajectories, and K
// thresholded trajectories, mirroring paper Fig. 12. With -export it instead
// re-encodes the loaded checkpoint — optionally int8-quantized — and exits;
// the solve produced by a float re-export is bit-identical to the original.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/eval"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-eval: ")
	var (
		ckpt    = flag.String("ckpt", "vmr2l.ckpt", "checkpoint path")
		profile = flag.String("profile", "medium-small", "dataset profile")
		nMaps   = flag.Int("maps", 6, "test mappings to evaluate")
		mnl     = flag.Int("mnl", 10, "migration number limit")
		traj    = flag.Int("traj", 16, "risk-seeking trajectories")
		seed    = flag.Int64("seed", 99, "random seed")
		dModel  = flag.Int("dmodel", 32, "embedding width (must match training)")
		blocks  = flag.Int("blocks", 2, "attention blocks (must match training)")
		export  = flag.String("export", "", "re-encode -ckpt at this path and exit")
		toInt8  = flag.Bool("int8", false, "quantize large linears to int8 before -export")
	)
	flag.Parse()

	cfg := policy.Config{DModel: *dModel, Hidden: 2 * *dModel, Blocks: *blocks,
		Extractor: policy.SparseAttention, Action: policy.TwoStage}
	m := policy.New(cfg)
	if err := m.Params.LoadFile(*ckpt); err != nil {
		log.Fatal(err)
	}
	if *export != "" {
		if *toInt8 {
			fmt.Printf("quantized %d linears to int8\n", m.Quantize())
		}
		if err := m.Params.SaveCKPTFile(*export, "f64"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported %s -> %s (ckpt, int8=%v)\n", *ckpt, *export, *toInt8)
		return
	}
	p, err := trace.Profiles(*profile)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	envCfg := sim.DefaultConfig(*mnl)
	// Every baseline solve runs under the paper's five-second budget; an
	// engine that overruns contributes its anytime best-so-far plan.
	ctx := context.Background()

	var initFR, haFR, greedyFR, riskFR, thrFR float64
	val := p.GenerateMapping(rng) // one validation mapping for thresholds
	vq, pq := eval.GridSearchThresholds(m, []*cluster.Cluster{val}, envCfg, 4, *seed)
	for i := 0; i < *nMaps; i++ {
		c := p.GenerateMapping(rng)
		initFR += c.FragRate(16)
		hctx, cancel := context.WithTimeout(ctx, solver.FiveSecondLimit)
		h, err := solver.Evaluate(hctx, heuristics.HA{}, c, envCfg)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		haFR += h.FinalFR
		greedy := eval.Run(m, c, envCfg, eval.Options{Trajectories: 1, Seed: *seed + int64(i)})
		greedyFR += greedy.BestValue
		risk := eval.Run(m, c, envCfg, eval.Options{Trajectories: *traj, Seed: *seed + int64(i)})
		riskFR += risk.BestValue
		thr := eval.Run(m, c, envCfg, eval.Options{
			Trajectories: *traj, Seed: *seed + int64(i),
			VMQuantile: vq, PMQuantile: pq,
		})
		thrFR += thr.BestValue
	}
	n := float64(*nMaps)
	fmt.Printf("profile %s, MNL %d, %d mappings\n", *profile, *mnl, *nMaps)
	fmt.Printf("  initial FR            %.4f\n", initFR/n)
	fmt.Printf("  HA                    %.4f\n", haFR/n)
	fmt.Printf("  VMR2L greedy          %.4f\n", greedyFR/n)
	fmt.Printf("  VMR2L risk-seek K=%-3d %.4f\n", *traj, riskFR/n)
	fmt.Printf("  VMR2L +threshold      %.4f (vm q=%.3f pm q=%.3f)\n", thrFR/n, vq, pq)
}
