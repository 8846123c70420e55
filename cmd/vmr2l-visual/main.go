// Command vmr2l-visual is the migration visualizer behind the paper's case
// study (Fig. 21): it rolls a solver on one mapping and prints the NUMA
// occupancy bars of the source and destination PMs after every migration.
//
//	vmr2l-visual -profile tiny -mnl 8 -solver ha
//	vmr2l-visual -profile tiny -mnl 8 -solver bnb
//	vmr2l-visual -profile tiny -mnl 8 -solver agent -ckpt vmr2l.ckpt
//
// Glyphs a-p aggregate allocated CPU per VM type on each NUMA; dots are
// free cores.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"vmr2l/internal/bench"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-visual: ")
	var (
		profile = flag.String("profile", "tiny", "dataset profile")
		mnl     = flag.Int("mnl", 8, "migration number limit")
		seed    = flag.Int64("seed", 1, "random seed")
		which   = flag.String("solver", "ha", "solver: ha|bnb|agent")
		ckpt    = flag.String("ckpt", "", "checkpoint for -solver agent (fresh weights when empty)")
		width   = flag.Int("width", 16, "bar width in characters")
	)
	flag.Parse()
	p, err := trace.Profiles(*profile)
	if err != nil {
		log.Fatal(err)
	}
	c := p.GenerateMapping(rand.New(rand.NewSource(*seed)))
	var s solver.Solver
	switch *which {
	case "ha":
		s = heuristics.HA{}
	case "bnb":
		s = &exact.Solver{Beam: 6, AllowLoss: true, MaxNodes: 50000}
	case "agent":
		m := policy.New(policy.DefaultConfig())
		if *ckpt != "" {
			if err := m.Params.LoadFile(*ckpt); err != nil {
				log.Fatal(err)
			}
		}
		s = &policy.Agent{Model: m, Opts: policy.SampleOpts{Greedy: true}}
	default:
		log.Fatalf("unknown solver %q", *which)
	}
	env := sim.New(c, sim.DefaultConfig(*mnl))
	fmt.Printf("initial FR %.4f over %d PMs / %d VMs\n\n", env.FragRate(), len(c.PMs), len(c.VMs))
	// Step the solver one action at a time by replaying its full plan; the
	// five-second budget keeps even the exact engine interactive.
	ctx, cancel := context.WithTimeout(context.Background(), solver.FiveSecondLimit)
	defer cancel()
	if err := s.Solve(ctx, env); err != nil {
		log.Fatal(err)
	}
	replay := sim.New(c, sim.DefaultConfig(*mnl))
	for step, m := range env.Plan() {
		r, _, err := replay.Step(m.VM, m.ToPM)
		if err != nil {
			log.Fatalf("replay step %d: %v", step, err)
		}
		cc := replay.Cluster()
		fmt.Printf("step %2d: vm%-4d (%2d cores) pm%d -> pm%d  reward %+.3f  FR %.4f\n",
			step+1, m.VM, cc.VMs[m.VM].CPU, m.FromPM, m.ToPM, r, replay.FragRate())
		fmt.Printf("  src pm%-3d numa0 |%s|  numa1 |%s|\n", m.FromPM,
			bench.NumaBar(cc, m.FromPM, 0, *width), bench.NumaBar(cc, m.FromPM, 1, *width))
		fmt.Printf("  dst pm%-3d numa0 |%s|  numa1 |%s|\n", m.ToPM,
			bench.NumaBar(cc, m.ToPM, 0, *width), bench.NumaBar(cc, m.ToPM, 1, *width))
	}
	fmt.Printf("\nfinal FR %.4f (%d migrations, objective %s)\n",
		replay.FragRate(), replay.StepsTaken(), s.Meta().Name)
}
