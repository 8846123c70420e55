// Command vmr2l-bench regenerates the paper's tables and figures and runs
// the robustness suites:
//
//	vmr2l-bench -exp fig9          # one experiment
//	vmr2l-bench -exp all           # everything, in paper order
//	vmr2l-bench -exp fig9 -full    # larger datasets/budgets (slow)
//	vmr2l-bench -list              # available experiment ids
//	vmr2l-bench -scenario diurnal  # live-cluster session pipeline (solve + churn + repair)
//	vmr2l-bench -scenarios         # available scenario names
//	vmr2l-bench -chaos             # failure scenarios + shed overload -> BENCH_chaos.json
//	vmr2l-bench -fleet             # multi-node replica-kill failover -> BENCH_fleet.json
//
// Reports are printed as aligned text tables. The -scenario pipeline runs
// the full serving stack in-process — session registration from the named
// scenario, scenario churn streamed while a session-scoped job solves, and
// plan validation/repair against the drifted state. Latency is measured by
// one instrument, go run ./benchmarks/e2e (see benchmarks/e2e/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vmr2l/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-bench: ")
	var (
		exp        = flag.String("exp", "all", "experiment id (fig1..fig21, tab2..tab5) or 'all'")
		full       = flag.Bool("full", false, "use the larger (slow) experiment scale")
		seed       = flag.Int64("seed", 1, "random seed")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		scen       = flag.String("scenario", "", "run the live-cluster session pipeline for this scenario (see -scenarios)")
		scenMins   = flag.Int("minutes", 30, "simulated minutes of churn streamed during the -scenario solve")
		scenarios  = flag.Bool("scenarios", false, "list scenario names and exit")
		chaos      = flag.Bool("chaos", false, "run the chaos benchmark (failure scenarios vs healthy twins + degraded-mode shed overload) and update -chaos-out")
		chaosOut   = flag.String("chaos-out", "BENCH_chaos.json", "artifact path for -chaos")
		chaosCheck = flag.Bool("chaos-check", false, "with -chaos: exit 1 when the pinned chaos gates fail (invariant violation, evacuation completion below the pin, FR drift above the pin, or shed accounting broken)")
		fleet      = flag.Bool("fleet", false, "run the node-level chaos benchmark (3 coordinated replicas, one killed mid-advance under concurrent jobs, sessions re-homed from snapshots) and update -fleet-out")
		fleetOut   = flag.String("fleet-out", "BENCH_fleet.json", "artifact path for -fleet")
		fleetCheck = flag.Bool("fleet-check", false, "with -fleet: exit 1 when a pinned fleet gate fails (failover accounting broken, re-homed state not bit-identical to the snapshot/twin, a job unaccounted, or the fleet unserviceable after failover)")
	)
	flag.Parse()
	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}
	if *scenarios {
		for _, n := range bench.ScenarioNames() {
			fmt.Println(n)
		}
		return
	}
	if *scen != "" {
		start := time.Now()
		rep, err := bench.RunScenario(*scen, *seed, *scenMins)
		if err != nil {
			log.Fatalf("scenario %s: %v", *scen, err)
		}
		rep.Fprint(os.Stdout)
		fmt.Printf("elapsed: %s\n", time.Since(start).Round(time.Millisecond))
		return
	}
	if *chaos {
		start := time.Now()
		rep, err := bench.RunChaos(func(s string) { log.Printf("chaos: %s", s) })
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		art, err := bench.UpdateChaosArtifact(*chaosOut, rep)
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		art.Fprint(os.Stdout)
		fmt.Printf("wrote %s\nelapsed: %s\n", *chaosOut, time.Since(start).Round(time.Millisecond))
		if *chaosCheck {
			if regs := bench.ChaosRegressions(rep); len(regs) > 0 {
				for _, r := range regs {
					log.Printf("REGRESSION: %s", r)
				}
				log.Fatalf("chaos: %d gate failure(s)", len(regs))
			}
			fmt.Println("chaos gate: ok")
		}
		return
	}
	if *fleet {
		start := time.Now()
		rep, err := bench.RunFleet(func(s string) { log.Printf("fleet: %s", s) })
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		art, err := bench.UpdateFleetArtifact(*fleetOut, rep)
		if err != nil {
			log.Fatalf("fleet: %v", err)
		}
		art.Fprint(os.Stdout)
		fmt.Printf("wrote %s\nelapsed: %s\n", *fleetOut, time.Since(start).Round(time.Millisecond))
		if *fleetCheck {
			if regs := bench.FleetRegressions(rep); len(regs) > 0 {
				for _, r := range regs {
					log.Printf("REGRESSION: %s", r)
				}
				log.Fatalf("fleet: %d gate failure(s)", len(regs))
			}
			fmt.Println("fleet gate: ok")
		}
		return
	}
	opts := bench.Options{Seed: *seed, Full: *full}
	run := func(e bench.Experiment) {
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		rep.Fprint(os.Stdout)
		fmt.Printf("elapsed: %s\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *exp == "all" {
		for _, e := range bench.Registry() {
			run(e)
		}
		return
	}
	e, ok := bench.Lookup(*exp)
	if !ok {
		log.Fatalf("unknown experiment %q (use -list)", *exp)
	}
	run(e)
}
