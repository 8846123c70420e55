package bench

import (
	"context"
	"fmt"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/eval"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/mcts"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// methodSet builds the full baseline roster of section 5.1 plus VMR2L, using
// shared training where several learned baselines reuse the same trunk.
type methodSet struct {
	solvers []solver.Solver
	vmr2l   *policy.Model
}

// buildMethods trains VMR2L (and its Decima variant) on train mappings, then
// assembles all baselines with budgets scaled to the latency limit.
func buildMethods(o Options, train, test []*cluster.Cluster, envCfg sim.Config, updates int) (*methodSet, error) {
	m, err := trainAgent(agentSpec(policy.TwoStage, policy.SparseAttention, o.Seed), train, nil, envCfg, updates, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	decimaCfg := agentSpec(policy.TwoStage, policy.VanillaAttention, o.Seed+1)
	decimaCfg.PMSubset = 3
	decima, err := trainAgent(decimaCfg, train, nil, envCfg, updates/2+1, o.Seed+1, nil)
	if err != nil {
		return nil, err
	}
	nodeBudget := 30000
	if o.Full {
		nodeBudget = 200000
	}
	np := &policy.NeuPlan{Model: m, Beta: envCfg.MNL / 2, Seed: o.Seed}
	np.Inner = exact.Solver{Beam: 4, AllowLoss: true, MaxNodes: nodeBudget / 4}
	ms := &methodSet{
		vmr2l: m,
		solvers: []solver.Solver{
			heuristics.HA{},
			heuristics.VBPP{Alpha: 4},
			&exact.Solver{Beam: 6, AllowLoss: true, MaxNodes: nodeBudget},
			exact.POP{Parts: 4, Seed: o.Seed, Inner: exact.Solver{Beam: 4, AllowLoss: true, MaxNodes: nodeBudget}},
			&mcts.Solver{Iterations: 48, Width: 6, Seed: o.Seed},
			&policy.Agent{Model: decima, Opts: policy.SampleOpts{Greedy: true}, Label: "Decima"},
			np,
			&policy.Agent{Model: m, Opts: policy.SampleOpts{Greedy: true}, Label: "VMR2L"},
		},
	}
	return ms, nil
}

// overallTable runs every method over mappings × MNLs producing FR and time
// columns per MNL.
func overallTable(ms *methodSet, maps []*cluster.Cluster, mnls []int, obj sim.Objective) (Table, Table, error) {
	fr := Table{Title: "Fragment rate by MNL", Header: []string{"method"}}
	tm := Table{Title: "Inference time by MNL (per mapping)", Header: []string{"method"}}
	for _, mnl := range mnls {
		fr.Header = append(fr.Header, fmt.Sprintf("MNL=%d", mnl))
		tm.Header = append(tm.Header, fmt.Sprintf("MNL=%d", mnl))
	}
	initRow := []string{"initial"}
	for range mnls {
		initRow = append(initRow, f4(meanInitialFR(maps)))
	}
	fr.Rows = append(fr.Rows, initRow)
	for _, s := range ms.solvers {
		frRow := []string{s.Meta().Name}
		tmRow := []string{s.Meta().Name}
		for _, mnl := range mnls {
			cfg := sim.Config{MNL: mnl, Obj: obj}
			var rs []solver.Result
			for _, c := range maps {
				r, err := solver.Evaluate(context.Background(), s, c, cfg)
				if err != nil {
					return fr, tm, fmt.Errorf("%s: %w", s.Meta().Name, err)
				}
				rs = append(rs, r)
			}
			mfr, _, _, mt := solver.Mean(rs)
			frRow = append(frRow, f4(mfr))
			tmRow = append(tmRow, ms2(mt))
		}
		fr.Rows = append(fr.Rows, frRow)
		tm.Rows = append(tm.Rows, tmRow)
	}
	return fr, tm, nil
}

func ms2(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }

// Fig9 is the headline comparison: all methods on the Medium dataset.
func Fig9(o Options) (*Report, error) {
	profile, nTrain, nTest, updates := "tiny", 8, 3, 16
	mnls := []int{2, 4, 6}
	if o.Full {
		profile, nTrain, nTest, updates = "medium-small", 16, 6, 60
		mnls = []int{10, 20, 30, 40, 50}
	}
	train := genMaps(profile, nTrain, o.Seed)
	test := genMaps(profile, nTest, o.Seed+1000)
	envCfg := sim.DefaultConfig(mnls[len(mnls)-1])
	ms, err := buildMethods(o, train, test, envCfg, updates)
	if err != nil {
		return nil, err
	}
	fr, tm, err := overallTable(ms, test, mnls, sim.FR16())
	if err != nil {
		return nil, err
	}
	// Risk-seeking VMR2L row at the largest MNL.
	kTraj := 8
	rs := Table{Title: "VMR2L risk-seeking at max MNL", Header: []string{"trajectories", "FR"}}
	for _, k := range []int{1, kTraj} {
		total := 0.0
		for i, c := range test {
			out := eval.Run(ms.vmr2l, c, sim.DefaultConfig(mnls[len(mnls)-1]),
				eval.Options{Trajectories: k, Seed: o.Seed + int64(i)})
			total += out.BestValue
		}
		rs.Rows = append(rs.Rows, []string{itoa(k), f4(total / float64(len(test)))})
	}
	return &Report{
		ID: "fig9", Title: "Overall performance on the Medium dataset",
		Tables: []Table{fr, tm, rs},
		Notes: []string{
			fiveSecondNote,
			"paper: VMR2L within 2.86% of MIP at MNL=50 with 1.1s inference; MIP needs 50.55min",
		},
	}, nil
}

// Fig18 is the Large-dataset scalability run (MIP excluded, as in the paper).
func Fig18(o Options) (*Report, error) {
	profile, nTrain, nTest, updates := "tiny", 8, 2, 14
	mnls := []int{4, 8}
	if o.Full {
		profile, nTrain, nTest, updates = "large-small", 12, 4, 40
		mnls = []int{10, 20, 40, 60}
	}
	train := genMaps(profile, nTrain, o.Seed)
	test := genMaps(profile, nTest, o.Seed+1000)
	envCfg := sim.DefaultConfig(mnls[len(mnls)-1])
	ms, err := buildMethods(o, train, test, envCfg, updates)
	if err != nil {
		return nil, err
	}
	// Drop the unpartitioned exact solver: the paper's Fig. 18 omits MIP
	// because it exceeds an hour per mapping at this scale.
	var kept []solver.Solver
	for _, s := range ms.solvers {
		if _, isExact := s.(*exact.Solver); isExact {
			continue
		}
		kept = append(kept, s)
	}
	ms.solvers = kept
	fr, tm, err := overallTable(ms, test, mnls, sim.FR16())
	if err != nil {
		return nil, err
	}
	return &Report{
		ID: "fig18", Title: "FR and time performance on the Large dataset",
		Tables: []Table{fr, tm},
		Notes: []string{
			"paper: MIP omitted (>1h per mapping); VMR2L solves one Large mapping in 3.8s",
		},
	}, nil
}

// Fig19 evaluates low/middle workloads at high MNLs, where HA plateaus but
// VMR2L and POP keep improving.
func Fig19(o Options) (*Report, error) {
	profiles := []string{"workload-low-small", "workload-mid-small"}
	nTrain, nTest, updates := 8, 2, 14
	mnls := []int{4, 10}
	if o.Full {
		nTrain, nTest, updates = 12, 5, 40
		mnls = []int{25, 50, 100}
	}
	var tables []Table
	nodeBudget := 25000
	for pi, profile := range profiles {
		train := genMaps(profile, nTrain, o.Seed+int64(pi))
		test := genMaps(profile, nTest, o.Seed+int64(pi)+500)
		envCfg := sim.DefaultConfig(mnls[len(mnls)-1])
		m, err := trainAgent(agentSpec(policy.TwoStage, policy.SparseAttention, o.Seed), train, nil, envCfg, updates, o.Seed, nil)
		if err != nil {
			return nil, err
		}
		ms := &methodSet{solvers: []solver.Solver{
			heuristics.HA{},
			exact.POP{Parts: 4, Seed: o.Seed, Inner: exact.Solver{Beam: 4, AllowLoss: true, MaxNodes: nodeBudget}},
			&policy.Agent{Model: m, Opts: policy.SampleOpts{Greedy: true}, Label: "VMR2L"},
		}}
		fr, _, err := overallTable(ms, test, mnls, sim.FR16())
		if err != nil {
			return nil, err
		}
		fr.Title = fmt.Sprintf("FR on %s", profile)
		tables = append(tables, fr)
	}
	return &Report{
		ID: "fig19", Title: "FR on different workloads with different MNLs",
		Tables: tables,
		Notes: []string{
			"paper: HA fails to keep decreasing FR at MNL=100; VMR2L achieves 7.42%/4.8% (low) and 13.77%/6.3% (mid) lower FR than HA/POP",
		},
	}, nil
}
