// Command vmr2l-train trains a VMR2L agent with PPO on a dataset (generated
// on the fly from a profile, or loaded from vmr2l-datagen output) and saves
// a checkpoint:
//
//	vmr2l-train -profile medium-small -mnl 20 -updates 60 -ckpt agent.ckpt
//	vmr2l-train -ckpt agent.ckpt -int8   # int8 export
//
// Architecture and action-space ablations are exposed as flags so the
// paper's variants (vanilla attention, penalty, full-mask, Decima-style
// subsampling) can be trained with the same binary. The checkpoint is a
// VMR2LCK1 file (self-describing manifest + raw tensor data; see
// internal/nn). -int8 additionally quantizes the large linears so the
// exported checkpoint serves on the int8 path.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-train: ")
	var (
		profile   = flag.String("profile", "medium-small", "dataset profile")
		dataDir   = flag.String("data", "", "load dataset from this directory instead of generating")
		nMaps     = flag.Int("maps", 24, "mappings to generate when -data is unset")
		mnl       = flag.Int("mnl", 10, "migration number limit (episode length)")
		updates   = flag.Int("updates", 40, "PPO updates")
		ckpt      = flag.String("ckpt", "vmr2l.ckpt", "checkpoint output path")
		seed      = flag.Int64("seed", 1, "random seed")
		dModel    = flag.Int("dmodel", 32, "embedding width")
		blocks    = flag.Int("blocks", 2, "attention blocks")
		extractor = flag.String("extractor", "sparse", "feature extractor: sparse|vanilla|mlp")
		action    = flag.String("action", "two-stage", "action space: two-stage|penalty|full-mask")
		pmSubset  = flag.Int("pm-subset", 0, "Decima-style random PM subset size (0 = off)")
		lr        = flag.Float64("lr", 1e-3, "Adam learning rate")
		initCkpt  = flag.String("init-ckpt", "", "warm-start from this checkpoint (fine-tuning)")
		freeze    = flag.String("freeze", "", "comma-separated parameter-name prefixes to freeze (e.g. \"block0,pm_embed\")")
		riskQ     = flag.Float64("risk-quantile", 0, "risk-seeking training quantile in (0,1); 0 disables")
		workers   = flag.Int("workers", 1, "parallel rollout-collection goroutines")
		toInt8    = flag.Bool("int8", false, "quantize large linears to int8 before saving")
	)
	flag.Parse()

	var train, val []*cluster.Cluster
	if *dataDir != "" {
		d, err := trace.LoadDataset(*dataDir, *profile)
		if err != nil {
			log.Fatal(err)
		}
		train, val = d.Train, d.Val
	} else {
		p, err := trace.Profiles(*profile)
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(*seed))
		d := p.Generate(rng, *nMaps)
		train, val = d.Train, d.Val
	}

	cfg := policy.Config{
		DModel: *dModel, Hidden: 2 * *dModel, Blocks: *blocks, Seed: *seed,
		PMSubset: *pmSubset,
	}
	switch *extractor {
	case "sparse":
		cfg.Extractor = policy.SparseAttention
	case "vanilla":
		cfg.Extractor = policy.VanillaAttention
	case "mlp":
		cfg.Extractor = policy.NoAttention
	default:
		log.Fatalf("unknown extractor %q", *extractor)
	}
	switch *action {
	case "two-stage":
		cfg.Action = policy.TwoStage
	case "penalty":
		cfg.Action = policy.Penalty
	case "full-mask":
		cfg.Action = policy.FullMask
	default:
		log.Fatalf("unknown action mode %q", *action)
	}

	m := policy.New(cfg)
	fmt.Printf("model parameters: %d (independent of cluster size)\n", m.Params.Count())
	if *initCkpt != "" {
		if err := m.Params.LoadFile(*initCkpt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("warm-started from %s\n", *initCkpt)
	}
	if *freeze != "" {
		for _, prefix := range strings.Split(*freeze, ",") {
			n := m.Params.Freeze(strings.TrimSpace(prefix))
			fmt.Printf("froze %d parameter tensors under %q\n", n, prefix)
		}
	}
	tc := rl.DefaultConfig()
	tc.Seed = *seed
	tc.LR = *lr
	tc.RiskQuantile = *riskQ
	tc.Workers = *workers
	trainer := rl.NewTrainer(m, tc)
	envCfg := sim.DefaultConfig(*mnl)
	_, err := trainer.Train(train, envCfg, *updates, func(st rl.UpdateStats) {
		if st.Update%5 == 0 || st.Update == *updates-1 {
			valFR := rl.EvalFR(m, val, envCfg)
			fmt.Printf("update %3d  return %+.4f  pg %.4f  v %.4f  ent %.3f  val FR %.4f\n",
				st.Update, st.MeanReturn, st.PolicyLoss, st.ValueLoss, st.Entropy, valFR)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	if *toInt8 {
		fmt.Printf("quantized %d linears to int8\n", m.Quantize())
	}
	if err := m.Params.SaveCKPTFile(*ckpt, "f64"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved checkpoint to %s (int8=%v)\n", *ckpt, *toInt8)
}
