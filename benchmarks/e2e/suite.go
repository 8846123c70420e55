package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild re-executes this binary for one workload, so that every workload
// gets a fresh process: its own set-up time, peak memory and collector state.
// The child's report is copied to out; its full result is returned.
func runChild(out io.Writer, name string, seed int64, seconds int, traced bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds)}
	if traced {
		args = append(args, "-trace")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a violated check exits non-zero but still reports
	var res *result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, resultPrefix):
			res = &result{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, resultPrefix)), res); err != nil {
				return nil, fmt.Errorf("%s: parse result: %w", name, err)
			}
		case strings.HasPrefix(line, "{"): // the driver's line; the parent has no use for it
		default:
			fmt.Fprintln(out, line)
		}
	}
	if res == nil {
		return nil, fmt.Errorf("%s: child printed no result (%v)", name, runErr)
	}
	return res, nil
}

// runSuite runs every workload once, each in its own process.
func runSuite(seed int64, seconds int, traced bool) int {
	code := 0
	for _, w := range workloads {
		res, err := runChild(os.Stdout, w.name, seed, seconds, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	if code != 0 {
		fmt.Println("FAIL: at least one check was violated (see VIOLATION lines)")
	} else {
		fmt.Println("ok: every job of every workload passed its checks")
	}
	return code
}

// aaSetRuns is the number of suite runs in each of the two A/A sets.
const aaSetRuns = 3

// runAA is the benchmark's self-check: the same code is measured as two
// interleaved sets (A B A B A B) and the set medians must agree within each
// metric's own bound — a benchmark that cannot tell itself from itself within
// a bound cannot carry a claim at that bound. Plans must agree exactly.
func runAA(only string, seed int64, seconds int) int {
	list := workloads
	if only != "" {
		w, err := findWorkload(only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			return 2
		}
		list = []*workload{w}
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	exact := map[string]string{} // workload -> digest, fill ratio and fail ratio of its first run
	code := 0
	for run := 0; run < 2*aaSetRuns; run++ {
		set := run % 2
		for _, w := range list {
			fmt.Printf("A/A run %d of %d, set %c, %s\n", run+1, 2*aaSetRuns, 'A'+set, w.name)
			res, err := runChild(io.Discard, w.name, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e2e:", err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("FAIL %s: %s\n", w.name, strings.Join(res.Violations, "; "))
				code = 1
			}
			for name, v := range res.EndToEnd {
				sets[set][key{w.name, name}] = append(sets[set][key{w.name, name}], v.Value)
			}
			sig := fmt.Sprintf("plan_digest %s plan_fill_ratio %v job_fail_ratio %v",
				res.PlanDigest, res.EndToEnd["plan_fill_ratio"].Value, res.FailRatio)
			if first, ok := exact[w.name]; !ok {
				exact[w.name] = sig
			} else if first != sig {
				fmt.Printf("FAIL %s: runs disagree exactly-compared values: %q vs %q\n", w.name, first, sig)
				code = 1
			}
		}
	}
	fmt.Printf("%-22s %-18s %12s %12s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, w := range list {
		for _, d := range endToEnd {
			a, b := median(sets[0][key{w.name, d.Name}]), median(sets[1][key{w.name, d.Name}])
			diff := (b - a) / a
			if diff < 0 {
				diff = -diff
			}
			verdict := ""
			if diff > d.Bound {
				verdict = "  FAIL"
				code = 1
			}
			fmt.Printf("%-22s %-18s %12.4f %12.4f %7.2f%% %6.1f%%%s\n", w.name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
		fmt.Printf("%-22s %s\n", w.name, exact[w.name])
	}
	if code == 0 {
		fmt.Println("ok: both sets agree within every bound")
	}
	return code
}
