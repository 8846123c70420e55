package bench

import (
	"fmt"

	"vmr2l/internal/eval"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// Fig10 trains the three feature extractors and reports their convergence
// curves on held-out mappings (test FR after each update).
func Fig10(o Options) (*Report, error) {
	profile, nTrain, nTest, updates := "tiny", 8, 2, 14
	mnl := 4
	if o.Full {
		profile, nTrain, nTest, updates = "medium-small", 12, 4, 40
		mnl = 20
	}
	train := genMaps(profile, nTrain, o.Seed)
	test := genMaps(profile, nTest, o.Seed+1000)
	envCfg := sim.DefaultConfig(mnl)
	variants := []struct {
		name string
		mode policy.ExtractorMode
	}{
		{"sparse-attention", policy.SparseAttention},
		{"vanilla-attention", policy.VanillaAttention},
		{"no-attention(MLP)", policy.NoAttention},
	}
	tbl := Table{Title: "Test FR during training", Header: []string{"update"}}
	curves := make([][]float64, len(variants))
	for vi, v := range variants {
		tbl.Header = append(tbl.Header, v.name)
		curves[vi] = make([]float64, updates)
		_, err := trainAgent(agentSpec(policy.TwoStage, v.mode, o.Seed), train, test, envCfg, updates, o.Seed,
			func(u int, fr float64) { curves[vi][u] = fr })
		if err != nil {
			return nil, err
		}
	}
	for u := 0; u < updates; u++ {
		row := []string{itoa(u)}
		for vi := range variants {
			row = append(row, f4(curves[vi][u]))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	finals := Table{Title: "Final test FR", Header: []string{"variant", "FR"}}
	for vi, v := range variants {
		finals.Rows = append(finals.Rows, []string{v.name, f4(curves[vi][updates-1])})
	}
	return &Report{
		ID: "fig10", Title: "Ablation on sparse attention",
		Tables: []Table{tbl, finals},
		Notes: []string{
			"paper: MLP fails to converge; sparse attention overtakes vanilla as training progresses (0.3090 -> 0.2941 final FR)",
		},
	}, nil
}

// Fig11 plots the distribution of stage-1 VM probabilities of a trained
// policy over validation states: most VMs get negligible probability, which
// motivates action thresholding.
func Fig11(o Options) (*Report, error) {
	profile, nTrain, nVal, updates := "tiny", 8, 2, 14
	mnl := 4
	if o.Full {
		profile, nTrain, nVal, updates = "medium-small", 12, 6, 40
		mnl = 20
	}
	train := genMaps(profile, nTrain, o.Seed)
	val := genMaps(profile, nVal, o.Seed+1000)
	envCfg := sim.DefaultConfig(mnl)
	m, err := trainAgent(agentSpec(policy.TwoStage, policy.SparseAttention, o.Seed), train, nil, envCfg, updates, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	hist := newLogHistogram()
	var all []float64
	over1pct := 0
	total := 0
	for _, c := range val {
		env := sim.New(c, envCfg)
		for !env.Done() {
			vmProbs, _ := m.Probabilities(env)
			for _, p := range vmProbs {
				hist.add(p)
				all = append(all, p)
				total++
				if p > 0.01 {
					over1pct++
				}
			}
			// Advance with the greedy action to visit multiple states.
			dec, err := m.Act(env, newRand(o.Seed), policy.SampleOpts{Greedy: true})
			if err != nil {
				break
			}
			if _, _, err := env.Step(dec.State.VM, dec.State.PM); err != nil {
				break
			}
		}
	}
	tbl := Table{Title: "VM selection probability histogram", Header: []string{"bin", "count"}}
	labels := []string{"[0,1e-5)", "[1e-5,1e-4)", "[1e-4,1e-3)", "[1e-3,1e-2)", "[1e-2,1e-1)", "[1e-1,1]"}
	for i, l := range labels {
		tbl.Rows = append(tbl.Rows, []string{l, itoa(hist.counts[i])})
	}
	q := quantiles(all, 0.5, 0.95, 0.99)
	return &Report{
		ID: "fig11", Title: "VM probability distribution",
		Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("%.2f%% of VM candidates exceed 1%% probability (paper: fewer than 0.8%%)", 100*float64(over1pct)/float64(total)),
			fmt.Sprintf("median %.2e, p95 %.2e, p99 %.2e", q[0], q[1], q[2]),
		},
	}, nil
}

// Fig12 sweeps risk-seeking trajectory counts with and without action
// thresholding.
func Fig12(o Options) (*Report, error) {
	profile, nTrain, nTest, updates := "tiny", 8, 2, 14
	mnl := 4
	ks := []int{1, 2, 4, 8}
	if o.Full {
		profile, nTrain, nTest, updates = "medium-small", 12, 5, 40
		mnl = 20
		ks = []int{1, 2, 4, 8, 16, 32, 64}
	}
	train := genMaps(profile, nTrain, o.Seed)
	test := genMaps(profile, nTest, o.Seed+1000)
	envCfg := sim.DefaultConfig(mnl)
	m, err := trainAgent(agentSpec(policy.TwoStage, policy.SparseAttention, o.Seed), train, nil, envCfg, updates, o.Seed, nil)
	if err != nil {
		return nil, err
	}
	vq, pq := eval.GridSearchThresholds(m, test[:1], envCfg, 2, o.Seed)
	tbl := Table{Title: "Test FR vs sampled trajectories", Header: []string{"K", "baseline", "w/ threshold"}}
	for _, k := range ks {
		base, thr := 0.0, 0.0
		for i, c := range test {
			ob := eval.Run(m, c, envCfg, eval.Options{Trajectories: k, Seed: o.Seed + int64(i)})
			ot := eval.Run(m, c, envCfg, eval.Options{Trajectories: k, Seed: o.Seed + int64(i), VMQuantile: vq, PMQuantile: pq})
			base += ob.BestValue
			thr += ot.BestValue
		}
		tbl.Rows = append(tbl.Rows, []string{itoa(k), f4(base / float64(len(test))), f4(thr / float64(len(test)))})
	}
	return &Report{
		ID: "fig12", Title: "Risk-seeking evaluation",
		Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("grid-searched thresholds: vm q=%.3f pm q=%.3f", vq, pq),
			"paper: FR decreases with more trajectories and further with thresholding",
		},
	}, nil
}

// Fig13 compares the three constraint-handling modes on the Medium dataset
// and the Multi-Resource dataset (with its harder capacity constraints).
func Fig13(o Options) (*Report, error) {
	nTrain, nTest, updates := 8, 2, 10
	mnl := 4
	profiles := []string{"tiny", "multi-resource-small"}
	if o.Full {
		nTrain, nTest, updates = 12, 4, 40
		mnl = 20
		profiles = []string{"medium-small", "multi-resource-small"}
	}
	modes := []struct {
		name string
		mode policy.ActionMode
	}{
		{"two-stage", policy.TwoStage},
		{"penalty", policy.Penalty},
		{"full-mask", policy.FullMask},
	}
	var tables []Table
	for pi, profile := range profiles {
		train := genMaps(profile, nTrain, o.Seed+int64(pi))
		test := genMaps(profile, nTest, o.Seed+int64(pi)+500)
		envCfg := sim.DefaultConfig(mnl)
		tbl := Table{Title: fmt.Sprintf("Test FR during training on %s", profile), Header: []string{"update"}}
		curves := make([][]float64, len(modes))
		for mi, md := range modes {
			tbl.Header = append(tbl.Header, md.name)
			curves[mi] = make([]float64, updates)
			_, err := trainAgent(agentSpec(md.mode, policy.SparseAttention, o.Seed), train, test, envCfg, updates, o.Seed,
				func(u int, fr float64) { curves[mi][u] = fr })
			if err != nil {
				return nil, err
			}
		}
		for u := 0; u < updates; u++ {
			row := []string{itoa(u)}
			for mi := range modes {
				row = append(row, f4(curves[mi][u]))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		tables = append(tables, tbl)
	}
	return &Report{
		ID: "fig13", Title: "Different constraints with the two-stage framework",
		Tables: tables,
		Notes: []string{
			"paper: penalty converges slower to a sub-optimal level; full-mask fails to converge; two-stage is fastest",
		},
	}, nil
}
