package solver

import (
	"fmt"
	"math"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// MigrationStatus classifies one planned migration against a live cluster
// that has drifted since the solver's snapshot (paper Fig. 5: the VMS
// best-fit scheduler keeps mutating the cluster while VMR computes).
type MigrationStatus int

// Statuses, from healthy to hopeless. Stale migrations are the price of the
// solve latency; ValidatePlan measures it, RepairPlan recovers what it can.
const (
	// MigrationValid applies cleanly to the live cluster.
	MigrationValid MigrationStatus = iota
	// MigrationStaleVMGone: the VM exited (or never existed live).
	MigrationStaleVMGone
	// MigrationStaleDestFull: the destination PM no longer has capacity.
	MigrationStaleDestFull
	// MigrationStaleConflict: the VM moved off its planned source PM, the
	// destination now hosts an anti-affine peer, or a swap partner failed.
	MigrationStaleConflict
	// MigrationStaleDestDown: the destination PM is Draining or Down on the
	// live cluster — it may well have the capacity, but it takes no new
	// placements.
	MigrationStaleDestDown
	// MigrationEvacRequired: the planned migration is stale AND the VM sits
	// on a Draining/Down PM, so unlike every other stale class it cannot
	// simply be dropped — the repairer must move the VM somewhere, objective
	// improvement or not.
	MigrationEvacRequired
)

// String returns the wire name of the status.
func (s MigrationStatus) String() string {
	switch s {
	case MigrationValid:
		return "valid"
	case MigrationStaleVMGone:
		return "stale-vm-gone"
	case MigrationStaleDestFull:
		return "stale-dest-full"
	case MigrationStaleConflict:
		return "stale-conflict"
	case MigrationStaleDestDown:
		return "stale-dest-down"
	case MigrationEvacRequired:
		return "evacuation-required"
	default:
		return "unknown"
	}
}

// PlanCheck is the classification of one planned migration.
type PlanCheck struct {
	Migration sim.Migration
	Status    MigrationStatus
}

// classify determines the status of migration m against scratch without
// mutating it. The caller applies valid migrations so later steps see the
// effect of earlier ones.
func classify(scratch *cluster.Cluster, m sim.Migration) MigrationStatus {
	if m.VM < 0 || m.VM >= len(scratch.VMs) || !scratch.VMs[m.VM].Placed() {
		return MigrationStaleVMGone
	}
	st := classifyPlaced(scratch, m)
	if st != MigrationValid && scratch.PMs[scratch.VMs[m.VM].PM].Health != cluster.Up {
		// The planned move is stale, but the VM is stranded on a degraded
		// PM: the staleness is not drop-able, it is an evacuation order.
		return MigrationEvacRequired
	}
	return st
}

// classifyPlaced classifies a migration whose VM is live and placed.
func classifyPlaced(scratch *cluster.Cluster, m sim.Migration) MigrationStatus {
	if m.ToPM < 0 || m.ToPM >= len(scratch.PMs) {
		// The destination does not exist on the live cluster (a plan from a
		// differently sized cluster): nothing to host the VM.
		return MigrationStaleDestFull
	}
	if scratch.PMs[m.ToPM].Health != cluster.Up {
		return MigrationStaleDestDown
	}
	if scratch.VMs[m.VM].PM != m.FromPM {
		return MigrationStaleConflict
	}
	if scratch.VMs[m.VM].PM == m.ToPM {
		// Source equals destination live (only possible for drifted plans);
		// nothing to do, and Migrate would refuse.
		return MigrationStaleConflict
	}
	if scratch.CanHost(m.VM, m.ToPM) {
		return MigrationValid
	}
	if affinityBlocked(scratch, m.VM, m.ToPM) {
		return MigrationStaleConflict
	}
	return MigrationStaleDestFull
}

// affinityBlocked reports whether anti-affinity (rather than capacity) is
// what stops vmID from moving to pmID.
func affinityBlocked(c *cluster.Cluster, vmID, pmID int) bool {
	v := &c.VMs[vmID]
	if !c.AntiAffinity || v.Service < 0 {
		return false
	}
	for _, other := range c.PMs[pmID].VMs {
		if other != vmID && c.VMs[other].Service == v.Service {
			return true
		}
	}
	return false
}

// ValidatePlan classifies every migration of a plan against the live
// cluster. Valid migrations are applied to an internal scratch copy in plan
// order, so a later migration that depends on space freed by an earlier one
// is still recognized as valid; live is never mutated. Swap pairs (two
// consecutive entries with Swap set) are atomic: if either half fails, both
// are stale.
func ValidatePlan(live *cluster.Cluster, plan []sim.Migration) []PlanCheck {
	scratch := live.Clone()
	checks := make([]PlanCheck, 0, len(plan))
	for i := 0; i < len(plan); i++ {
		m := plan[i]
		if m.Swap && i+1 < len(plan) && plan[i+1].Swap {
			n := plan[i+1]
			i++
			checks = append(checks, classifySwap(scratch, m, n)...)
			continue
		}
		st := classify(scratch, m)
		if st == MigrationValid {
			if err := scratch.Migrate(m.VM, m.ToPM, cluster.DefaultFragCores); err != nil {
				st = MigrationStaleDestFull // classify raced its own scratch; be safe
			}
		}
		checks = append(checks, PlanCheck{Migration: m, Status: st})
	}
	return checks
}

// classifySwap applies an atomic swap pair to scratch when possible and
// returns the pair's classifications.
func classifySwap(scratch *cluster.Cluster, m, n sim.Migration) []PlanCheck {
	status := func(x sim.Migration) MigrationStatus {
		if x.VM < 0 || x.VM >= len(scratch.VMs) || !scratch.VMs[x.VM].Placed() {
			return MigrationStaleVMGone
		}
		if scratch.PMs[scratch.VMs[x.VM].PM].Health != cluster.Up {
			return MigrationEvacRequired
		}
		return MigrationStaleConflict
	}
	applied, _ := sim.ApplyPlan(scratch, []sim.Migration{m, n})
	if applied == 2 {
		return []PlanCheck{{Migration: m, Status: MigrationValid}, {Migration: n, Status: MigrationValid}}
	}
	return []PlanCheck{{Migration: m, Status: status(m)}, {Migration: n, Status: status(n)}}
}

// RepairStats counts what RepairPlan did with each planned migration.
type RepairStats struct {
	// Valid migrations applied unchanged.
	Valid int `json:"valid"`
	// Repaired migrations were stale but re-fitted to a new destination
	// that still reduces fragment on the live cluster.
	Repaired int `json:"repaired"`
	// Dropped migrations could not be salvaged (VM gone, or no remaining
	// destination improves the objective).
	Dropped int `json:"dropped"`
	// Evacuated counts forced evacuations the pre-pass emitted for VMs
	// stranded on Draining/Down PMs — mandatory moves that run ahead of (and
	// regardless of) FR optimization.
	Evacuated int `json:"evacuated,omitempty"`
	// EvacFailed counts stranded VMs no Up PM could host: the plan leaves
	// them in place and the caller must shed load or wait for recoveries.
	EvacFailed int `json:"evac_failed,omitempty"`
}

// RepairedPlan is the outcome of validating and repairing a plan against a
// live cluster.
type RepairedPlan struct {
	// Plan holds only migrations that apply cleanly, in order, with
	// destinations rewritten where a repair re-fitted them.
	Plan  []sim.Migration
	Stats RepairStats
	// InitialFR / FinalFR are the true 16-core fragment rates of the live
	// cluster before and after the repaired plan — the honest fragment
	// delta, as opposed to the solver's snapshot-relative claim.
	InitialFR float64
	FinalFR   float64
}

// RepairPlanObjective validates plan against the live cluster and repairs
// what it can: valid migrations are kept; stale ones are re-fitted to the
// destination that best improves obj — the same objective the solver
// optimized — and kept only when the move still strictly improves it, else
// dropped. live is never mutated; the returned plan applies cleanly to a
// copy of it taken at call time. Swap pairs are kept atomically or dropped
// whole — a half-feasible swap is not re-fitted. The reported
// InitialFR/FinalFR are always 16-core fragment rates regardless of obj
// (the cross-objective yardstick of the wire format).
//
// When the live fleet is degraded, repair starts with a forced-evacuation
// pre-pass: every VM stranded on a Draining/Down PM is moved to an Up PM
// ahead of FR optimization — to the plan's own destination for that VM when
// it still fits, else to the best-fit destination under obj, accepted even
// when it worsens the objective (evacuation is mandatory, fragment is not).
// These emitted migrations carry Forced=true and count in Stats.Evacuated;
// stranded VMs with no feasible Up destination count in Stats.EvacFailed
// and stay put. Plan entries whose VM the pre-pass already moved are
// consumed by it rather than re-repaired.
func RepairPlanObjective(live *cluster.Cluster, plan []sim.Migration, obj sim.Objective) RepairedPlan {
	if len(obj.Terms) == 0 {
		obj = sim.FR16()
	}
	scratch := live.Clone()
	out := RepairedPlan{InitialFR: scratch.FragRate(cluster.DefaultFragCores)}

	// Forced-evacuation pre-pass over the degraded fleet.
	var evacuated, evacFailed map[int]bool
	if stranded := scratch.StrandedVMs(nil); len(stranded) > 0 {
		evacuated, evacFailed = map[int]bool{}, map[int]bool{}
		planDest := map[int]int{}
		for _, m := range plan {
			if !m.Swap && m.VM >= 0 {
				planDest[m.VM] = m.ToPM
			}
		}
		for _, vm := range stranded {
			rec, ok := evacOne(scratch, vm, planDest, obj)
			if !ok {
				out.Stats.EvacFailed++
				evacFailed[vm] = true
				continue
			}
			out.Plan = append(out.Plan, rec)
			out.Stats.Evacuated++
			evacuated[vm] = true
		}
	}

	for i := 0; i < len(plan); i++ {
		m := plan[i]
		if !m.Swap && evacuated[m.VM] {
			// The pre-pass already honored this entry's real intent (get the
			// VM off its PM); the emitted evacuation consumed it.
			delete(evacuated, m.VM)
			continue
		}
		if m.Swap && i+1 < len(plan) && plan[i+1].Swap {
			n := plan[i+1]
			i++
			if applied, _ := sim.ApplyPlan(scratch, []sim.Migration{m, n}); applied == 2 {
				out.Plan = append(out.Plan, m, n)
				out.Stats.Valid += 2
			} else {
				out.Stats.Dropped += 2
			}
			continue
		}
		switch classify(scratch, m) {
		case MigrationValid:
			if err := scratch.Migrate(m.VM, m.ToPM, cluster.DefaultFragCores); err == nil {
				rec := m
				rec.ToNuma = scratch.VMs[m.VM].Numa
				out.Plan = append(out.Plan, rec)
				out.Stats.Valid++
				continue
			}
			fallthrough
		case MigrationStaleDestFull, MigrationStaleConflict, MigrationStaleDestDown:
			if rec, ok := refit(scratch, m.VM, obj); ok {
				out.Plan = append(out.Plan, rec)
				out.Stats.Repaired++
			} else {
				out.Stats.Dropped++
			}
		case MigrationEvacRequired:
			// The pre-pass could not place this stranded VM, but migrations
			// applied since may have freed capacity: retry, forced.
			if rec, ok := refitAny(scratch, m.VM, obj); ok {
				rec.Forced = true
				out.Plan = append(out.Plan, rec)
				out.Stats.Evacuated++
				if evacFailed[m.VM] {
					delete(evacFailed, m.VM)
					out.Stats.EvacFailed--
				}
			} else {
				out.Stats.Dropped++
			}
		default: // MigrationStaleVMGone
			out.Stats.Dropped++
		}
	}
	out.FinalFR = scratch.FragRate(cluster.DefaultFragCores)
	return out
}

// refitEps is the minimum objective improvement a re-fitted migration must
// deliver. Objective values are rational with denominators bounded by total
// free resources, so any true improvement clears this comfortably.
const refitEps = 1e-9

// evacOne force-moves a stranded VM off its degraded PM: to the plan's own
// destination for it when that still fits (honoring the solver's intent),
// else to the best feasible destination under obj, accepted regardless of
// objective sign. The returned record carries Forced=true.
func evacOne(scratch *cluster.Cluster, vm int, planDest map[int]int, obj sim.Objective) (sim.Migration, bool) {
	src, srcNuma := scratch.VMs[vm].PM, scratch.VMs[vm].Numa
	if dst, ok := planDest[vm]; ok && dst >= 0 && dst < len(scratch.PMs) && scratch.CanHost(vm, dst) {
		if err := scratch.Migrate(vm, dst, cluster.DefaultFragCores); err == nil {
			return sim.Migration{
				VM: vm, FromPM: src, FromNuma: srcNuma,
				ToPM: dst, ToNuma: scratch.VMs[vm].Numa, Forced: true,
			}, true
		}
	}
	rec, ok := refitAny(scratch, vm, obj)
	rec.Forced = ok
	return rec, ok
}

// refit moves vm (still placed, but its planned destination is stale) to
// the feasible PM with the largest strict improvement of obj, mirroring the
// solver's intent with fresh information. Returns ok=false when no
// destination strictly improves.
func refit(scratch *cluster.Cluster, vm int, obj sim.Objective) (sim.Migration, bool) {
	return refitBest(scratch, vm, obj, refitEps)
}

// refitAny is refit without the strict-improvement bar: any feasible
// destination qualifies, best objective first — the forced-evacuation mode.
func refitAny(scratch *cluster.Cluster, vm int, obj sim.Objective) (sim.Migration, bool) {
	return refitBest(scratch, vm, obj, math.Inf(-1))
}

// refitBest moves vm to the feasible PM with the best improvement of obj
// exceeding minScore. Candidates are scored by trial migration against the
// scratch cluster (O(1) aggregate updates per trial), restoring the exact
// source placement between trials. Returns the executed migration record,
// or ok=false when no destination clears the bar.
func refitBest(scratch *cluster.Cluster, vm int, obj sim.Objective, minScore float64) (sim.Migration, bool) {
	src, srcNuma := scratch.VMs[vm].PM, scratch.VMs[vm].Numa
	before := obj.Value(scratch)
	bestPM, bestScore := -1, math.Inf(-1)
	for pm := range scratch.PMs {
		if pm == src || !scratch.CanHost(vm, pm) {
			continue
		}
		if err := scratch.Migrate(vm, pm, cluster.DefaultFragCores); err != nil {
			continue
		}
		score := before - obj.Value(scratch)
		// Restore the exact source placement for the next trial.
		if err := scratch.Remove(vm); err != nil {
			panicRestore(err)
		}
		if err := scratch.Place(vm, src, srcNuma); err != nil {
			panicRestore(err)
		}
		if score > bestScore {
			bestPM, bestScore = pm, score
		}
	}
	if bestPM < 0 || bestScore <= minScore {
		return sim.Migration{}, false
	}
	rec := sim.Migration{VM: vm, FromPM: src, FromNuma: srcNuma, ToPM: bestPM}
	if err := scratch.Migrate(vm, bestPM, cluster.DefaultFragCores); err != nil {
		return sim.Migration{}, false
	}
	rec.ToNuma = scratch.VMs[vm].Numa
	return rec, true
}

// panicRestore flags a broken trial-migration rollback: the VM was just
// removed from (or hosted by) the source slot, so restoring it cannot fail
// unless the cluster invariants are already violated.
func panicRestore(err error) {
	panic(fmt.Sprintf("solver: refit trial rollback failed: %v", err))
}
