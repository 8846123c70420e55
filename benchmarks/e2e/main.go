// Command e2e is the end-to-end benchmark of the serving stack: a request
// enters the coordinator over a loopback listener and a repaired plan comes
// back, through client -> coord -> service -> serve -> policy -> solver, all
// built in this one process from generated inputs. See README.md.
//
//	go run ./benchmarks/e2e                       # the four workloads, one child process each
//	go run ./benchmarks/e2e -workload NAME        # one workload, in this process
//	go run ./benchmarks/e2e -trace [-workload N]  # traced run: per-layer metrics and reconciliation
//	go run ./benchmarks/e2e -aa [-workload N]     # A/A self-check of the benchmark's own bounds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// runTimeout bounds one workload run; the driver allows 180 s.
const runTimeout = 170 * time.Second

// traceOut is where a traced run leaves its span files, relative to the
// repository root the command is run from.
const traceOut = "benchmarks/e2e/out"

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (default: all four, one child process each)")
	seed := fs.Int64("seed", 1, "input seed; 2 is the hold-out a later claim must also pass")
	seconds := fs.Int("seconds", nominalSeconds, "run length the fixed job counts are scaled to")
	traced := fs.Bool("trace", false, "traced run: per-layer metrics, reconciliation tables, span file")
	aa := fs.Bool("aa", false, "A/A self-check: two interleaved sets of three suite runs, compared against the bounds")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2e: unexpected arguments; see -h")
		return 2
	}
	switch {
	case *aa:
		return runAA(*name, *seed, *seconds)
	case *name == "":
		return runSuite(*seed, *seconds, *traced)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	traceDir := ""
	if *traced {
		traceDir = traceOut
	}
	res, err := runWorkload(ctx, w, *seed, *seconds, traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	res.print(os.Stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeArgs lets the boolean -trace also take its value as a separate
// word ("--trace 1"), the form the benchmark driver uses.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}
