// Command vmr2l-bench regenerates the paper's tables and figures and runs
// the live-cluster scenario pipeline:
//
//	vmr2l-bench -exp fig9          # one experiment
//	vmr2l-bench -exp all           # everything, in paper order
//	vmr2l-bench -exp fig9 -full    # larger datasets/budgets (slow)
//	vmr2l-bench -list              # available experiment ids
//	vmr2l-bench -scenario diurnal  # live-cluster session pipeline (solve + churn + repair)
//	vmr2l-bench -scenarios         # available scenario names
//
// Reports are printed as aligned text tables. The -scenario pipeline runs
// the full serving stack in-process — session registration from the named
// scenario, scenario churn streamed while a session-scoped job solves, and
// plan validation/repair against the drifted state. Latency is measured by
// one instrument, go run ./benchmarks/e2e (see benchmarks/e2e/README.md).
// The chaos and fleet robustness gates are go tests:
//
//	go test -run 'TestRunChaosSmall|TestRunFleet' ./internal/bench/
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
		exp       = flag.String("exp", "all", "experiment id (fig1..fig21, tab2..tab5) or 'all'")
		full      = flag.Bool("full", false, "use the larger (slow) experiment scale")
		seed      = flag.Int64("seed", 1, "random seed")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		scen      = flag.String("scenario", "", "run the live-cluster session pipeline for this scenario (see -scenarios)")
		scenMins  = flag.Int("minutes", 30, "simulated minutes of churn streamed during the -scenario solve")
		scenarios = flag.Bool("scenarios", false, "list scenario names and exit")
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
