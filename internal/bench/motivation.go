package bench

import (
	"context"
	"fmt"
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/sched"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

// Fig1 reproduces the diurnal VM-churn series: arrivals/exits per minute
// over 24 hours with the early-morning VMR window.
func Fig1(o Options) (*Report, error) {
	rng := rand.New(rand.NewSource(o.Seed))
	peak := 8.0
	if o.Full {
		peak = 40.0
	}
	p := trace.MustProfile("medium-small")
	var mix []cluster.VMType
	for _, tw := range p.VMMix {
		mix = append(mix, tw.Type)
	}
	// A day of churn on a live cluster, aggregated per hour for a readable
	// table. Events counts every generated change, rejected arrivals too.
	dyn := sched.NewDynamics(p.GenerateMapping(rng), rng, mix, sched.Diurnal(peak))
	tbl := Table{Title: "VM changes per minute (hourly mean)", Header: []string{"hour", "changes/min", "bar"}}
	troughHour, troughVal := 0, 1e18
	peakHour, peakVal := 0, -1.0
	for h := 0; h < 24; h++ {
		mean := float64(dyn.Advance(60).Events) / 60
		if mean < troughVal {
			troughHour, troughVal = h, mean
		}
		if mean > peakVal {
			peakHour, peakVal = h, mean
		}
		bar := ""
		for i := 0.0; i < mean; i += peak / 16 {
			bar += "#"
		}
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprintf("%02d:00", h), f3(mean), bar})
	}
	return &Report{
		ID: "fig1", Title: "VM arrivals and exits per minute", Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("churn trough at %02d:00 (%.2f/min), peak at %02d:00 (%.2f/min)", troughHour, troughVal, peakHour, peakVal),
			"paper: VMR runs in the early-morning trough; VMS must absorb the peak",
		},
	}, nil
}

// fig4Budget returns the B&B node budget standing in for Gurobi runtime.
func fig4Budget(o Options) int {
	if o.Full {
		return 400000
	}
	return 40000
}

// Fig4 compares the exact solver and HA across MNLs on FR and runtime —
// the motivation experiment showing MIP quality with exploding latency.
func Fig4(o Options) (*Report, error) {
	profile := "tiny"
	mnls := []int{2, 4, 6, 8}
	nMaps := 2
	if o.Full {
		profile = "medium-small"
		mnls = []int{5, 10, 15, 20, 25}
		nMaps = 5
	}
	maps := genMaps(profile, nMaps, o.Seed)
	tbl := Table{
		Title:  "FR and inference time vs MNL",
		Header: []string{"MNL", "initial FR", "HA FR", "MIP FR", "HA time", "MIP time", "MIP nodes/HA nodes"},
	}
	var lastGap float64
	for _, mnl := range mnls {
		cfg := sim.DefaultConfig(mnl)
		var haFRs, mipFRs []solver.Result
		for _, c := range maps {
			h, err := solver.Evaluate(context.Background(), heuristics.HA{}, c, cfg)
			if err != nil {
				return nil, err
			}
			mip := &exact.Solver{Beam: 6, AllowLoss: true, MaxNodes: fig4Budget(o) * mnl / mnls[0]}
			mres, err := solver.Evaluate(context.Background(), mip, c, cfg)
			if err != nil {
				return nil, err
			}
			haFRs = append(haFRs, h)
			mipFRs = append(mipFRs, mres)
		}
		haFR, _, _, haT := solver.Mean(haFRs)
		mipFR, _, _, mipT := solver.Mean(mipFRs)
		lastGap = haFR - mipFR
		tbl.Rows = append(tbl.Rows, []string{
			itoa(mnl), f4(meanInitialFR(maps)), f4(haFR), f4(mipFR),
			ms(float64(haT.Microseconds()) / 1000), ms(float64(mipT.Microseconds()) / 1000),
			fmt.Sprintf("%.0fx", float64(mipT)/float64(haT+1)),
		})
	}
	return &Report{
		ID: "fig4", Title: "FR and inference time at different MNLs (MIP vs HA)",
		Tables: []Table{tbl},
		Notes: []string{
			fmt.Sprintf("MIP-HA FR gap at max MNL: %.4f (paper: gap grows with MNL)", lastGap),
			"paper: MIP runtime grows exponentially with MNL (1.78min@25 -> 50.55min@50); the node budget scales accordingly here",
		},
	}, nil
}

// Fig5 replays dynamic cluster churn during solver inference: the longer a
// near-optimal solution takes, the more of it fails to deploy.
func Fig5(o Options) (*Report, error) {
	profile := "tiny"
	nMaps := 3
	churnPerSec := 0.4
	if o.Full {
		profile = "medium-small"
		nMaps = 10
		churnPerSec = 1.0
	}
	maps := genMaps(profile, nMaps, o.Seed)
	mnl := 6
	delays := []float64{0, 1, 2, 5, 10, 30, 60, 180}
	var mix []cluster.VMType
	for _, tw := range trace.MustProfile(profile).VMMix {
		mix = append(mix, tw.Type)
	}
	tbl := Table{
		Title:  "Achieved FR vs inference delay (near-optimal plan computed at t=0)",
		Header: []string{"delay(s)", "achieved FR", "applied", "skipped"},
	}
	rng := rand.New(rand.NewSource(o.Seed + 1))
	type point struct {
		fr               float64
		applied, skipped int
	}
	points := make([]point, len(delays))
	for _, c := range maps {
		// Near-optimal plan from the initial snapshot.
		s := &exact.Solver{Beam: 6, AllowLoss: true, MaxNodes: 60000}
		env := sim.New(c, sim.DefaultConfig(mnl))
		if err := s.Solve(context.Background(), env); err != nil {
			return nil, err
		}
		plan := env.Plan()
		for di, d := range delays {
			// Simulate d seconds of churn, then deploy the stale plan.
			evolved := c.Clone()
			dyn := sched.NewDynamics(evolved, rng, nil, nil)
			for i := 0; i < int(d*churnPerSec); i++ {
				if rng.Float64() < 0.5 {
					dyn.Arrive(mix[rng.Intn(len(mix))])
				} else {
					dyn.ExitRandom()
				}
			}
			applied, skipped := sim.ApplyPlan(evolved, plan)
			points[di].fr += evolved.FragRate(cluster.DefaultFragCores)
			points[di].applied += applied
			points[di].skipped += skipped
		}
	}
	for di, d := range delays {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.0f", d), f4(points[di].fr / float64(nMaps)),
			itoa(points[di].applied), itoa(points[di].skipped),
		})
	}
	return &Report{
		ID: "fig5", Title: "Effect of inference time on achieved performance",
		Tables: []Table{tbl},
		Notes: []string{
			"paper: solutions stay near-optimal up to the ~5s elbow, then degrade as actions become infeasible",
			fmt.Sprintf("churn rate simulated at %.1f VM events/second", churnPerSec),
		},
	}, nil
}

// fiveSecondNote reminds readers of the latency budget in solver tables.
const fiveSecondNote = "five-second limit (paper section 2.2): methods slower than this are stale in production"
