// Finetune: adapting a trained agent to a different cluster (paper section
// 7, "Adapting to New data"). A VMR2L agent trained on one workload is
// warm-started on a new cluster profile with its attention trunk frozen, so
// only the embedding networks and heads adapt — the "top-layer finetuning"
// recipe, at a fraction of full training cost. Also demonstrates
// risk-seeking training (section 8 future work): only above-quantile
// episodes contribute gradient.
//
//	go run ./examples/finetune
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

func maps(profile string, n int, seed int64) []*cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	p := trace.MustProfile(profile)
	out := make([]*cluster.Cluster, n)
	for i := range out {
		out[i] = p.GenerateFragmented(rng, 0.12, 12)
	}
	return out
}

func main() {
	log.SetFlags(0)
	cfg := policy.Config{
		DModel: 16, Hidden: 32, Blocks: 1,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: 1,
	}
	envCfg := sim.DefaultConfig(5)

	// Phase 1: pretrain on the source cluster with risk-seeking PPO.
	source := maps("tiny", 6, 1)
	pre := policy.New(cfg)
	tc := rl.DefaultConfig()
	tc.RolloutSteps = 64
	tc.LR = 1e-3
	tc.RiskQuantile = 0.25 // drop the worst quarter of episodes
	fmt.Println("pretraining on source cluster (12 risk-seeking PPO updates)...")
	if _, err := rl.NewTrainer(pre, tc).Train(source, envCfg, 12, nil); err != nil {
		log.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := pre.Params.SaveCKPT(&ckpt, "f64"); err != nil {
		log.Fatal(err)
	}

	// Phase 2: adapt to the multi-resource cluster (different PM flavors,
	// memory-heavy VMs) with the attention trunk frozen.
	target := maps("multi-resource-small", 4, 2)
	heldOut := maps("multi-resource-small", 2, 99)
	ft := policy.New(cfg)
	if err := ft.Params.Load(&ckpt); err != nil {
		log.Fatal(err)
	}
	frozen := ft.Params.Freeze("block0")
	fmt.Printf("warm-started; froze %d trunk tensors, tuning embeddings and heads only\n", frozen)
	before := rl.EvalFR(ft, heldOut, envCfg)
	tc2 := tc
	tc2.RiskQuantile = 0
	tc2.LR = 5e-4
	if _, err := rl.NewTrainer(ft, tc2).Train(target, envCfg, 8, nil); err != nil {
		log.Fatal(err)
	}
	after := rl.EvalFR(ft, heldOut, envCfg)

	// Baseline: training from scratch on the target with the same budget.
	scratchCfg := cfg
	scratchCfg.Seed = 7
	scratch := policy.New(scratchCfg)
	if _, err := rl.NewTrainer(scratch, tc2).Train(target, envCfg, 8, nil); err != nil {
		log.Fatal(err)
	}
	scratchFR := rl.EvalFR(scratch, heldOut, envCfg)

	init := 0.0
	for _, c := range heldOut {
		init += c.FragRate(cluster.DefaultFragCores)
	}
	init /= float64(len(heldOut))
	fmt.Printf("\nheld-out multi-resource mappings (initial FR %.4f):\n", init)
	fmt.Printf("  transferred, zero-shot        %.4f\n", before)
	fmt.Printf("  fine-tuned (frozen trunk)     %.4f\n", after)
	fmt.Printf("  from scratch (same budget)    %.4f\n", scratchFR)
}
