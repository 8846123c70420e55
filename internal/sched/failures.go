package sched

import (
	"fmt"
	"math"

	"vmr2l/internal/cluster"
)

// Failure dynamics make PM availability part of the live-cluster state the
// serving stack must survive, not a test-only fixture: Poisson PM crashes
// strand their VMs behind an evacuation deadline, rolling maintenance
// drains PMs one at a time, and recoveries return capacity. The engine
// guarantees two invariants after every Advance:
//
//  1. No VM remains on a Down PM past its evacuation deadline — at the
//     deadline the engine force-evacuates (best-fit to any Up PM) and, when
//     the fleet has no room, removes the VM and counts it in EvacLost.
//  2. Zero silent loss — every VM ever marked evacuation-pending is
//     accounted for: EvacMarked == Evacuated + EvacCancelled + EvacLost +
//     len(PendingEvacuations()).

// Default failure-dynamics knobs, used when the corresponding FailureSpec
// field is zero.
const (
	// DefaultEvacDeadline is the minutes a VM may stay on a failed PM.
	DefaultEvacDeadline = 10
	// DefaultEvacPerMinute bounds pre-deadline evacuation attempts per
	// simulated minute (deadline-forced evacuations are never deferred).
	DefaultEvacPerMinute = 8
)

// FailureSpec declares the failure dynamics of a live fleet. The zero value
// disables all automatic failures (explicit Crash/Drain/Recover calls still
// work, e.g. from a session's health events).
type FailureSpec struct {
	// CrashRate is the expected PM crashes per minute (Poisson).
	CrashRate float64
	// RecoverAfter returns a crashed PM to Up after this many minutes;
	// 0 means crashed PMs never recover on their own.
	RecoverAfter int
	// EvacDeadline is the minutes a VM may remain on a Down or Draining PM
	// before the engine force-evacuates it; 0 means DefaultEvacDeadline.
	EvacDeadline int
	// EvacPerMinute bounds how many pending evacuations are attempted per
	// minute ahead of their deadline; 0 means DefaultEvacPerMinute.
	EvacPerMinute int
	// MaintenanceEvery, when positive, starts a rolling-maintenance drain
	// every that many minutes: the next Up PM in id rotation goes Draining.
	MaintenanceEvery int
	// DrainDuration is the minimum minutes a draining PM stays in
	// maintenance; it returns Up once empty and this long has elapsed.
	DrainDuration int
	// MaxUnavailFrac caps the fraction of PMs simultaneously non-Up that
	// random crashes may cause (explicit Crash calls are not capped);
	// 0 means no cap beyond always keeping at least one PM Up.
	MaxUnavailFrac float64
}

// Enabled reports whether the spec produces any automatic failure events.
func (f FailureSpec) Enabled() bool {
	return f.CrashRate > 0 || f.MaintenanceEvery > 0
}

// deadline returns the effective evacuation deadline in minutes.
func (f FailureSpec) deadline() int {
	if f.EvacDeadline > 0 {
		return f.EvacDeadline
	}
	return DefaultEvacDeadline
}

// Evacuation is one pending forced migration: VM must leave PM by Deadline
// (an absolute minute on the engine's clock).
type Evacuation struct {
	VM       int `json:"vm"`
	PM       int `json:"pm"`
	Deadline int `json:"deadline"`
}

// failureState is the engine-internal failure bookkeeping, allocated on
// first use (SetFailures or an explicit Crash/Drain).
type failureState struct {
	spec FailureSpec
	on   bool
	// since records the minute of each non-Up PM's last transition.
	since map[int]int
	// evacs is the pending-evacuation queue in mark order; pending indexes
	// it by VM id (value: the PM of the VM's queue entry) so storms stay
	// O(1) per membership check and stale entries — a recycled VM id or a
	// VM migrated onto a newly failed PM before lazy cancellation ran — are
	// detectable at mark time. At most one queue entry exists per VM.
	evacs   []Evacuation
	pending map[int]int
	// nextMaint is the minute of the next rolling-maintenance drain;
	// maintIdx the rotation cursor.
	nextMaint int
	maintIdx  int
	// marked counts every evacuation ever enqueued (the EvacMarked stat).
	marked int
}

// failState lazily allocates the failure bookkeeping.
func (d *Dynamics) failState() *failureState {
	if d.fail == nil {
		d.fail = &failureState{since: map[int]int{}, pending: map[int]int{}}
	}
	return d.fail
}

// SetFailures enables automatic failure dynamics under spec (replacing any
// previous spec). Pending evacuations survive a spec change; already-set
// deadlines keep their original minutes.
func (d *Dynamics) SetFailures(spec FailureSpec) {
	f := d.failState()
	f.spec = spec
	f.on = spec.Enabled()
	if spec.MaintenanceEvery > 0 {
		f.nextMaint = d.minute + spec.MaintenanceEvery
	}
}

// PendingEvacuations appends the pending evacuation queue to dst (mark
// order) and returns it. Entries may be vacuous for up to one minute after
// churn resolves them (the next failure step cancels them).
func (d *Dynamics) PendingEvacuations(dst []Evacuation) []Evacuation {
	if d.fail == nil {
		return dst
	}
	return append(dst, d.fail.evacs...)
}

// Crash transitions an Up PM to Down and marks every hosted VM
// evacuation-pending under the configured deadline. Reports false when the
// PM does not exist or is not Up.
func (d *Dynamics) Crash(pm int) bool {
	if pm < 0 || pm >= len(d.c.PMs) || d.c.PMs[pm].Health != cluster.Up {
		return false
	}
	_ = d.c.SetHealth(pm, cluster.Down)
	f := d.failState()
	f.since[pm] = d.minute
	d.stats.Crashes++
	d.markEvacuations(pm)
	return true
}

// Drain transitions an Up PM to Draining (rolling maintenance) and marks
// its VMs evacuation-pending. Reports false when the PM is not Up.
func (d *Dynamics) Drain(pm int) bool {
	if pm < 0 || pm >= len(d.c.PMs) || d.c.PMs[pm].Health != cluster.Up {
		return false
	}
	_ = d.c.SetHealth(pm, cluster.Draining)
	f := d.failState()
	f.since[pm] = d.minute
	d.stats.Drains++
	d.markEvacuations(pm)
	return true
}

// Recover returns a Down or Draining PM to Up, cancelling the pending
// evacuations of VMs that survived on it. Reports false when the PM does
// not exist or is already Up.
func (d *Dynamics) Recover(pm int) bool {
	if pm < 0 || pm >= len(d.c.PMs) || d.c.PMs[pm].Health == cluster.Up {
		return false
	}
	_ = d.c.SetHealth(pm, cluster.Up)
	f := d.failState()
	delete(f.since, pm)
	d.stats.Recoveries++
	kept := f.evacs[:0]
	for _, ev := range f.evacs {
		if ev.PM == pm && ev.VM < len(d.c.VMs) && d.c.VMs[ev.VM].PM == pm {
			delete(f.pending, ev.VM)
			d.stats.EvacCancelled++
			continue
		}
		kept = append(kept, ev)
	}
	f.evacs = kept
	return true
}

// markEvacuations enqueues every VM hosted on pm for evacuation.
func (d *Dynamics) markEvacuations(pm int) {
	f := d.failState()
	deadline := d.minute + f.spec.deadline()
	for _, vm := range d.c.PMs[pm].VMs {
		if epm, ok := f.pending[vm]; ok {
			if epm == pm {
				continue // already pending from an earlier failure of this PM; keep its deadline
			}
			// The entry refers to a different PM than the one currently
			// hosting the VM: the id was recycled through churn, or the VM
			// migrated onto this PM, after its old entry was enqueued but
			// before lazy cancellation processed it. Cancel the stale entry
			// now and fall through to re-mark — otherwise the VM would sit
			// on a Down PM with no pending evacuation.
			d.cancelPending(vm)
		}
		f.pending[vm] = pm
		f.marked++
		f.evacs = append(f.evacs, Evacuation{VM: vm, PM: pm, Deadline: deadline})
	}
}

// cancelPending removes vm's queue entry (there is at most one) and counts
// it cancelled.
func (d *Dynamics) cancelPending(vm int) {
	f := d.fail
	kept := f.evacs[:0]
	for _, ev := range f.evacs {
		if ev.VM == vm {
			d.stats.EvacCancelled++
			continue
		}
		kept = append(kept, ev)
	}
	f.evacs = kept
	delete(f.pending, vm)
}

// failStep runs one minute of failure dynamics: automatic recoveries,
// rolling maintenance, Poisson crashes (when SetFailures enabled them),
// then evacuation processing (always, so explicit chaos injection gets the
// same deadline guarantees).
func (d *Dynamics) failStep() {
	f := d.fail
	if f == nil {
		return
	}
	if f.on {
		d.autoRecoveries()
		d.maintenanceTick()
		n := poisson(d.rng, f.spec.CrashRate)
		for i := 0; i < n; i++ {
			d.crashRandom()
		}
	}
	d.processEvacuations()
}

// autoRecoveries returns PMs whose outage has run its course: crashed PMs
// after RecoverAfter minutes, draining PMs once empty and past
// DrainDuration.
func (d *Dynamics) autoRecoveries() {
	f := d.fail
	for pm := range d.c.PMs {
		p := &d.c.PMs[pm]
		elapsed := d.minute - f.since[pm]
		switch p.Health {
		case cluster.Down:
			if f.spec.RecoverAfter > 0 && elapsed >= f.spec.RecoverAfter {
				d.Recover(pm)
			}
		case cluster.Draining:
			if len(p.VMs) == 0 && elapsed >= f.spec.DrainDuration {
				d.Recover(pm)
			}
		}
	}
}

// maintenanceTick starts the next rolling-maintenance drain when due.
func (d *Dynamics) maintenanceTick() {
	f := d.fail
	if f.spec.MaintenanceEvery <= 0 || d.minute < f.nextMaint {
		return
	}
	f.nextMaint = d.minute + f.spec.MaintenanceEvery
	for tries := 0; tries < len(d.c.PMs); tries++ {
		pm := f.maintIdx % len(d.c.PMs)
		f.maintIdx++
		if d.c.PMs[pm].Health == cluster.Up {
			d.Drain(pm)
			return
		}
	}
}

// crashRandom crashes one uniformly random Up PM, honoring MaxUnavailFrac
// and never taking the last Up PM.
func (d *Dynamics) crashRandom() bool {
	f := d.fail
	up := 0
	for i := range d.c.PMs {
		if d.c.PMs[i].Health == cluster.Up {
			up++
		}
	}
	if up <= 1 {
		return false // never crash the last healthy PM
	}
	if frac := f.spec.MaxUnavailFrac; frac > 0 {
		unavail := len(d.c.PMs) - up
		if float64(unavail+1) > frac*float64(len(d.c.PMs)) {
			return false
		}
	}
	k := d.rng.Intn(up)
	for i := range d.c.PMs {
		if d.c.PMs[i].Health != cluster.Up {
			continue
		}
		if k == 0 {
			return d.Crash(i)
		}
		k--
	}
	return false
}

// processEvacuations walks the pending queue once: vacuous entries (VM
// exited or PM recovered) are cancelled, up to EvacPerMinute pre-deadline
// entries are attempted, and entries at/past deadline on a Down PM are
// forced — evacuated if any Up PM fits, else removed and counted lost.
// Draining PMs are never force-removed (the PM is still running); their
// entries retry every minute.
func (d *Dynamics) processEvacuations() {
	f := d.fail
	if len(f.evacs) == 0 {
		return
	}
	budget := f.spec.EvacPerMinute
	if budget <= 0 {
		budget = DefaultEvacPerMinute
	}
	kept := f.evacs[:0]
	for _, ev := range f.evacs {
		if ev.VM >= len(d.c.VMs) || d.c.VMs[ev.VM].PM != ev.PM {
			// Exited, migrated, or recycled through churn: nothing left to do.
			delete(f.pending, ev.VM)
			d.stats.EvacCancelled++
			continue
		}
		if d.c.PMs[ev.PM].Health == cluster.Up {
			delete(f.pending, ev.VM)
			d.stats.EvacCancelled++
			continue
		}
		forced := d.minute >= ev.Deadline && d.c.PMs[ev.PM].Health == cluster.Down
		if !forced {
			if budget <= 0 {
				kept = append(kept, ev)
				continue
			}
			budget--
		}
		if d.evacuate(ev.VM) >= 0 {
			delete(f.pending, ev.VM)
			d.stats.Evacuated++
			continue
		}
		if forced {
			// The fleet has no room and the VM cannot stay on a dead PM:
			// honest data loss, never silent.
			_ = d.c.Remove(ev.VM)
			delete(f.pending, ev.VM)
			d.stats.EvacLost++
			if d.reuseSlots {
				d.freeIDs = append(d.freeIDs, ev.VM)
			}
			continue
		}
		kept = append(kept, ev)
	}
	f.evacs = kept
}

// evacuate migrates a placed VM to the best-fit Up PM (largest 16-core
// fragment drop, the BestFit rule), returning the destination or -1 when no
// Up PM can host it.
func (d *Dynamics) evacuate(vm int) int {
	c := d.c
	bestPM, bestScore := -1, math.MinInt
	for pm := range c.PMs {
		if !c.CanHost(vm, pm) {
			continue
		}
		numa := c.BestNuma(vm, pm, cluster.DefaultFragCores)
		if numa < 0 {
			continue
		}
		// Migrate re-derives the NUMA with the same BestNuma rule.
		if score := c.PlaceFragDelta(vm, pm, numa, cluster.DefaultFragCores); score > bestScore {
			bestPM, bestScore = pm, score
		}
	}
	if bestPM < 0 {
		return -1
	}
	if err := c.Migrate(vm, bestPM, cluster.DefaultFragCores); err != nil {
		return -1
	}
	return bestPM
}

// CheckFailureInvariants verifies the two serving invariants the failure
// engine guarantees after every Advance: no VM sits on a Down PM past its
// evacuation deadline (every stranded VM has a live pending entry), and the
// evacuation accounting balances exactly (zero silent loss). Intended for
// tests and the scenario fuzzer.
func (d *Dynamics) CheckFailureInvariants() error {
	var f failureState
	if d.fail != nil {
		f = *d.fail
	} else {
		f.pending = map[int]int{}
	}
	st := d.stats
	if got := st.Evacuated + st.EvacCancelled + st.EvacLost + len(f.evacs); got != f.marked {
		return fmt.Errorf("sched: evacuation accounting: marked %d != evacuated %d + cancelled %d + lost %d + pending %d",
			f.marked, st.Evacuated, st.EvacCancelled, st.EvacLost, len(f.evacs))
	}
	for i := range d.c.PMs {
		if d.c.PMs[i].Health != cluster.Down {
			continue
		}
		for _, vm := range d.c.PMs[i].VMs {
			if _, ok := f.pending[vm]; !ok {
				return fmt.Errorf("sched: vm %d stranded on down pm %d with no pending evacuation", vm, i)
			}
		}
	}
	for _, ev := range f.evacs {
		if ev.VM < len(d.c.VMs) && d.c.VMs[ev.VM].PM == ev.PM &&
			d.c.PMs[ev.PM].Health == cluster.Down && ev.Deadline < d.minute {
			return fmt.Errorf("sched: vm %d on down pm %d past deadline %d (minute %d)",
				ev.VM, ev.PM, ev.Deadline, d.minute)
		}
	}
	return nil
}
