package sched

import (
	"math/rand"

	"vmr2l/internal/cluster"
)

// RateFunc gives the expected VM change events per minute at an absolute
// minute of simulated time. Minutes wrap nothing: a RateFunc that models a
// day cycle should reduce its argument modulo 1440 itself (DiurnalRate
// already does).
type RateFunc func(minute int) float64

// Diurnal returns the paper's Fig. 1 day-cycle rate curve with the given
// peak (expected events per minute at 16:00).
func Diurnal(peak float64) RateFunc {
	return func(minute int) float64 { return DiurnalRate(minute, peak) }
}

// Constant returns a flat rate curve.
func Constant(rate float64) RateFunc {
	return func(int) float64 { return rate }
}

// Burst returns a base rate with a burst window [start, start+length)
// minutes at burstRate — the deploy-storm shape that makes precomputed
// plans stale fastest.
func Burst(base, burstRate float64, start, length int) RateFunc {
	return func(minute int) float64 {
		if minute >= start && minute < start+length {
			return burstRate
		}
		return base
	}
}

// Stats counts what a Dynamics engine has applied since construction.
type Stats struct {
	// Minutes is the total simulated time advanced.
	Minutes int
	// Events is every generated event, including rejected arrivals and
	// exits resolved against an empty cluster.
	Events int
	// Arrivals counts VMs successfully placed by BestFit.
	Arrivals int
	// Rejected counts arrivals no PM could host (the VM record remains,
	// unplaced, exactly as a failed VMS request leaves it).
	Rejected int
	// Exits counts removed VMs.
	Exits int

	// Failure-dynamics counters (see FailureSpec). The no-silent-loss
	// accounting bar: every VM that was ever marked evacuation-pending ends
	// up in exactly one of Evacuated, EvacCancelled, or EvacLost (or exited
	// through normal churn, counted in Exits).

	// Crashes counts PM crash events (health Up -> Down).
	Crashes int
	// Drains counts rolling-maintenance drain starts (Up -> Draining).
	Drains int
	// Recoveries counts PMs returned to Up (from Down or Draining).
	Recoveries int
	// Evacuated counts VMs successfully migrated off a Down/Draining PM.
	Evacuated int
	// EvacCancelled counts pending evacuations voided because the PM
	// recovered first or the VM exited/moved through normal churn.
	EvacCancelled int
	// EvacLost counts VMs removed at their evacuation deadline because no
	// Up PM could host them — the honest data-loss counter.
	EvacLost int
}

// Sub returns the field-wise difference s - prev: the delta between two
// cumulative snapshots. Every consumer of per-call deltas (Advance, the
// service's events endpoint) goes through here, so a new counter added to
// Stats only needs subtracting once.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Minutes:       s.Minutes - prev.Minutes,
		Events:        s.Events - prev.Events,
		Arrivals:      s.Arrivals - prev.Arrivals,
		Rejected:      s.Rejected - prev.Rejected,
		Exits:         s.Exits - prev.Exits,
		Crashes:       s.Crashes - prev.Crashes,
		Drains:        s.Drains - prev.Drains,
		Recoveries:    s.Recoveries - prev.Recoveries,
		Evacuated:     s.Evacuated - prev.Evacuated,
		EvacCancelled: s.EvacCancelled - prev.EvacCancelled,
		EvacLost:      s.EvacLost - prev.EvacLost,
	}
}

// Dynamics evolves a live cluster through VMS churn: a pull-based clock
// whose Advance applies Poisson arrivals (placed by BestFit) and
// uniform-random exits in place.
//
// The engine mutates the cluster it was given — that is the point: the
// cluster is the live system state that drifts away from any snapshot a
// solver is working on. Not safe for concurrent use; callers that share the
// cluster with readers (e.g. a serving session) must serialize access
// externally.
type Dynamics struct {
	c          *cluster.Cluster
	rng        *rand.Rand
	mix        []cluster.VMType
	rate       RateFunc
	arriveFrac float64
	minute     int
	stats      Stats
	// reuseSlots recycles dead (unplaced) VM records for new arrivals,
	// keeping len(c.VMs) bounded for long-lived clusters; see SetReuseSlots.
	reuseSlots bool
	freeIDs    []int
	// fail holds the failure-dynamics state (nil when failures are off and
	// no explicit Crash/Drain has ever been applied); see failures.go.
	fail *failureState
}

// NewDynamics builds an engine over the live cluster c. mix is the flavor
// distribution of arriving VMs and rate the expected events per minute; both
// may be nil when the caller applies events itself through Arrive, Exit and
// ExitRandom. Events split 50/50 between arrivals and exits by
// default; SetArriveFrac changes that.
func NewDynamics(c *cluster.Cluster, rng *rand.Rand, mix []cluster.VMType, rate RateFunc) *Dynamics {
	return &Dynamics{c: c, rng: rng, mix: mix, rate: rate, arriveFrac: 0.5}
}

// SetArriveFrac sets the probability that a generated event is an arrival
// (clamped to [0, 1]). 0 models a drain: exits only, as during maintenance
// evacuation; 1 models pure growth.
func (d *Dynamics) SetArriveFrac(f float64) {
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	d.arriveFrac = f
}

// SetReuseSlots makes arrivals recycle the VM records of exited (and
// rejected) VMs instead of appending forever, so a long-lived cluster —
// e.g. a serving session advanced for simulated weeks — stays bounded by
// its peak population instead of its cumulative churn. Off by default:
// every arrival appends a new VM record.
//
// Caveat for plan staleness checks: a recycled id can make a migration
// planned for the old VM look merely "moved" rather than "gone". Every
// repair outcome is still feasibility-checked against the live cluster, so
// plans remain safe — classification just attributes the staleness to a
// conflict instead of an exit.
func (d *Dynamics) SetReuseSlots(on bool) { d.reuseSlots = on }

// Cluster returns the live cluster the engine mutates.
func (d *Dynamics) Cluster() *cluster.Cluster { return d.c }

// Minute returns the current simulated clock in minutes.
func (d *Dynamics) Minute() int { return d.minute }

// Stats returns cumulative counts since construction.
func (d *Dynamics) Stats() Stats { return d.stats }

// Advance moves the clock forward by the given minutes, generating and
// applying Poisson event counts minute by minute at the configured rate.
// It returns the delta stats for just this advance. Advancing with a nil
// rate or empty mix moves only the clock (a static scenario). When failure
// dynamics are enabled (SetFailures) or pending evacuations exist, every
// minute also runs one failure step — crashes, drains, recoveries, and
// evacuation processing — after the churn events; Advance returns with no
// VM left on a Down/Draining PM past its evacuation deadline.
func (d *Dynamics) Advance(minutes int) Stats {
	before := d.stats
	for m := 0; m < minutes; m++ {
		if d.rate != nil && len(d.mix) > 0 {
			n := poisson(d.rng, d.rate(d.minute))
			for i := 0; i < n; i++ {
				if d.rng.Float64() < d.arriveFrac {
					d.Arrive(d.mix[d.rng.Intn(len(d.mix))])
				} else {
					d.ExitRandom()
				}
			}
		}
		d.failStep()
		d.minute++
		d.stats.Minutes++
	}
	return d.stats.Sub(before)
}

// Arrive adds a VM of type t and places it with BestFit, reporting the
// chosen PM (-1 when no PM fits; the unplaced record remains, as after a
// failed VMS request, and is recycled under SetReuseSlots).
func (d *Dynamics) Arrive(t cluster.VMType) int {
	d.stats.Events++
	id := d.allocVM(t)
	pm := BestFit(d.c, id)
	if pm >= 0 {
		d.stats.Arrivals++
	} else {
		d.stats.Rejected++
		if d.reuseSlots {
			d.freeIDs = append(d.freeIDs, id)
		}
	}
	return pm
}

// allocVM returns a fresh unplaced VM record of type t: a recycled dead
// slot when reuse is on and one is available, a new append otherwise.
func (d *Dynamics) allocVM(t cluster.VMType) int {
	if d.reuseSlots {
		for len(d.freeIDs) > 0 {
			id := d.freeIDs[len(d.freeIDs)-1]
			d.freeIDs = d.freeIDs[:len(d.freeIDs)-1]
			if id < len(d.c.VMs) && !d.c.VMs[id].Placed() {
				d.c.VMs[id] = cluster.VM{
					ID: id, CPU: t.CPU, Mem: t.Mem, Numas: t.Numas,
					PM: -1, Numa: -1, Service: -1,
				}
				return id
			}
		}
	}
	return d.c.AddVM(t)
}

// Exit removes the placed VM id. Reports false (without consuming rng) when
// the VM does not exist or is not placed.
func (d *Dynamics) Exit(id int) bool {
	d.stats.Events++
	if id < 0 || id >= len(d.c.VMs) || !d.c.VMs[id].Placed() {
		return false
	}
	if err := d.c.Remove(id); err != nil {
		return false
	}
	d.stats.Exits++
	if d.reuseSlots {
		d.freeIDs = append(d.freeIDs, id)
	}
	return true
}

// ExitRandom removes a uniformly random placed VM, reporting false when none
// is placed. It consumes exactly one rng.Intn draw when some VM is placed
// and none otherwise: the contract of the original event-slice replay,
// which the tests keep as an oracle.
func (d *Dynamics) ExitRandom() bool {
	d.stats.Events++
	placed := d.c.CountPlaced()
	if placed == 0 {
		return false
	}
	// Pick the k-th placed VM in id order: identical selection (and identical
	// single Intn draw) to the old build-a-slice implementation, without the
	// slice.
	k := d.rng.Intn(placed)
	for i := range d.c.VMs {
		if !d.c.VMs[i].Placed() {
			continue
		}
		if k == 0 {
			if err := d.c.Remove(i); err == nil {
				d.stats.Exits++
				if d.reuseSlots {
					d.freeIDs = append(d.freeIDs, i)
				}
				return true
			}
			return false
		}
		k--
	}
	return false
}
