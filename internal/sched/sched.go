// Package sched implements the VM scheduling (VMS) half of the paper's
// control plane: the latency-critical best-fit placement that handles new VM
// requests throughout the day (paper section 1), and the Dynamics engine
// that evolves a live cluster through the diurnal arrival/exit churn of
// Fig. 1 while a rescheduling solution is being computed (Fig. 5).
//
// Dynamics is the one churn engine: it owns a minute clock and applies
// Poisson arrivals (placed by BestFit) and uniform-random exits in place as
// the clock is advanced; Arrive and ExitRandom apply single events for
// callers that script their own churn.
//
// # Failure dynamics
//
// Layered over the churn, Dynamics models PM failure (failures.go): Poisson
// crashes (Up -> Down), rolling maintenance drains (Up -> Draining), and
// recovery, driven by a FailureSpec or injected manually with
// Crash/Drain/Recover (and at scenario level by a ChaosInjector). Every VM
// on a failed PM becomes evacuation-pending under a deadline; each minute
// the engine migrates pending VMs to the best-fit Up PM at a bounded rate,
// and a VM still on a Down PM at its deadline is removed and counted as
// lost — never silently dropped.
//
// The accounting bar is the no-silent-loss identity checked by
// CheckFailureInvariants: every VM ever marked evacuation-pending resolves
// into exactly one of Stats.Evacuated (migrated off in time),
// Stats.EvacCancelled (PM recovered first, or the VM exited/moved through
// normal churn), or Stats.EvacLost (deadline hit with no Up PM able to host
// it) — or is still pending within its deadline. The serving layers reuse
// the same discipline: solver.RepairStats counts forced evacuations and
// stranded VMs per repaired plan, serve.Stats counts shed waves, and the
// service's /v2/stats counts shed jobs and budget-dropped migrations.
package sched

import (
	"math"
	"math/rand"

	"vmr2l/internal/cluster"
)

// BestFit places VM id using ByteDance's production VMS rule: among PMs that
// can host the VM, choose the one with the largest drop in 16-core fragment
// from adding it (paper section 1). Returns the chosen PM or -1 if none fits.
//
// Each candidate is scored with cluster.PlaceFragDelta — O(1) arithmetic on
// the would-be destination NUMA — instead of the old Place/probe/Remove
// round-trip, so the scan never touches the cluster's incremental aggregates
// until the single final Place.
func BestFit(c *cluster.Cluster, id int) int {
	bestPM, bestNuma, bestScore := -1, -1, math.MinInt
	for pm := range c.PMs {
		if c.PMs[pm].Health != cluster.Up {
			// Draining and Down PMs take no new placements; a crashed PM
			// with freed capacity must never attract the VMs being
			// evacuated from its neighbors.
			continue
		}
		numa := c.BestNuma(id, pm, cluster.DefaultFragCores)
		if numa < 0 {
			continue
		}
		if c.AntiAffinity && !canHostUnplaced(c, id, pm) {
			continue
		}
		if score := c.PlaceFragDelta(id, pm, numa, cluster.DefaultFragCores); score > bestScore {
			bestPM, bestNuma, bestScore = pm, numa, score
		}
	}
	if bestPM < 0 {
		return -1
	}
	if err := c.Place(id, bestPM, bestNuma); err != nil {
		return -1
	}
	return bestPM
}

// canHostUnplaced mirrors Cluster.CanHost for a VM that is not yet placed
// (CanHost's "not the current PM" check is vacuous there, but the affinity
// check is not exported separately). Like CanHost, it accepts only Up PMs.
func canHostUnplaced(c *cluster.Cluster, id, pm int) bool {
	if c.PMs[pm].Health != cluster.Up {
		return false
	}
	v := c.VMs[id]
	if v.Service < 0 {
		return true
	}
	for _, other := range c.PMs[pm].VMs {
		if c.VMs[other].Service == v.Service {
			return false
		}
	}
	return true
}

// DiurnalRate returns the expected VM changes per minute at the given minute
// of day, reproducing the shape of paper Fig. 1: a midday peak (deploy hours)
// and an early-morning trough where VMR runs. peak scales the curve.
func DiurnalRate(minute int, peak float64) float64 {
	// Cosine day-cycle with trough at 04:00 and peak at 16:00.
	phase := 2 * math.Pi * (float64(minute)/1440.0 - 4.0/24.0)
	base := 0.55 - 0.45*math.Cos(phase)
	return peak * base
}

func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for p > l {
		k++
		p *= rng.Float64()
	}
	return k - 1
}
