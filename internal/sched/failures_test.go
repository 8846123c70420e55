package sched

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/trace"
)

// evacIdentity asserts the zero-silent-loss accounting after any sequence of
// failure activity.
func evacIdentity(t *testing.T, d *Dynamics) {
	t.Helper()
	if err := d.CheckFailureInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMarksAndEvacuates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	c.FragRate(cluster.DefaultFragCores)
	d := NewDynamics(c, rng, nil, nil)

	victims := len(c.PMs[0].VMs)
	if victims == 0 {
		t.Fatal("fixture PM 0 hosts no VMs")
	}
	if !d.Crash(0) {
		t.Fatal("Crash refused an Up PM")
	}
	if d.Crash(0) {
		t.Fatal("Crash accepted an already-Down PM")
	}
	if c.PMs[0].Health != cluster.Down {
		t.Fatalf("health %v after crash", c.PMs[0].Health)
	}
	if got := len(d.PendingEvacuations(nil)); got != victims {
		t.Fatalf("pending %d, want %d", got, victims)
	}
	if d.fail.marked != victims {
		t.Fatalf("marked %d, want %d", d.fail.marked, victims)
	}
	evacIdentity(t, d)

	// Advancing past the deadline resolves every victim: evacuated where an
	// Up PM fits (the tiny fixture always fits at least one), force-lost
	// where none does — never left behind.
	st := d.Advance(DefaultEvacDeadline + 1)
	if st.Crashes != 0 { // the explicit Crash predates this Advance window
		t.Fatalf("delta crashes %d", st.Crashes)
	}
	if st.Evacuated == 0 {
		t.Fatal("no victim evacuated despite spare capacity")
	}
	if st.Evacuated+st.EvacLost != victims {
		t.Fatalf("evacuated %d + lost %d != victims %d", st.Evacuated, st.EvacLost, victims)
	}
	if len(c.PMs[0].VMs) != 0 {
		t.Fatalf("%d VMs still on crashed PM", len(c.PMs[0].VMs))
	}
	if got := len(d.PendingEvacuations(nil)); got != 0 {
		t.Fatalf("pending %d after full evacuation", got)
	}
	evacIdentity(t, d)
}

// TestEvacuationDeadlineForcesLoss pins the honest-loss path: when no Up PM
// can host a stranded VM at its deadline, the VM is removed and counted in
// EvacLost — never silently kept on a dead PM.
func TestEvacuationDeadlineForcesLoss(t *testing.T) {
	c := cluster.New(2, cluster.PMSmall)
	// Fill PM 1 completely so the victim has nowhere to go.
	full := cluster.VMType{CPU: cluster.PMSmall.CPUPerNuma, Mem: cluster.PMSmall.MemPerNuma, Numas: 1}
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		if err := c.Place(c.AddVM(full), 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(victim, 0, 0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	d := NewDynamics(c, rng, nil, nil)
	d.SetFailures(FailureSpec{EvacDeadline: 3})

	if !d.Crash(0) {
		t.Fatal("crash failed")
	}
	st := d.Advance(2)
	if st.Evacuated != 0 || st.EvacLost != 0 {
		t.Fatalf("pre-deadline resolution: %+v", st)
	}
	evacIdentity(t, d)
	st = d.Advance(2) // crosses minute 3, the deadline
	if st.EvacLost != 1 {
		t.Fatalf("lost %d at deadline, want 1", st.EvacLost)
	}
	if c.VMs[victim].Placed() {
		t.Fatal("lost VM still placed")
	}
	evacIdentity(t, d)

	// Draining PMs never force loss: the PM is still running.
	d2c := cluster.New(2, cluster.PMSmall)
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		if err := d2c.Place(d2c.AddVM(full), 1, numa); err != nil {
			t.Fatal(err)
		}
	}
	v2 := d2c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := d2c.Place(v2, 0, 0); err != nil {
		t.Fatal(err)
	}
	d2 := NewDynamics(d2c, rand.New(rand.NewSource(3)), nil, nil)
	d2.SetFailures(FailureSpec{EvacDeadline: 2})
	d2.Drain(0)
	st = d2.Advance(10)
	if st.EvacLost != 0 || st.Evacuated != 0 {
		t.Fatalf("draining PM resolved evacuations with a full fleet: %+v", st)
	}
	if !d2c.VMs[v2].Placed() || d2c.VMs[v2].PM != 0 {
		t.Fatal("VM evicted from a draining PM with nowhere to go")
	}
	evacIdentity(t, d2)
}

func TestRecoverCancelsPending(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	d := NewDynamics(c, rng, nil, nil)
	d.SetFailures(FailureSpec{EvacDeadline: 1000, EvacPerMinute: 1})

	victims := len(c.PMs[1].VMs)
	d.Crash(1)
	d.Advance(1) // one evacuation attempt under the budget of 1
	st := d.Stats()
	if st.Evacuated != 1 {
		t.Fatalf("budgeted evacuations: %d, want 1", st.Evacuated)
	}
	if !d.Recover(1) {
		t.Fatal("Recover refused a Down PM")
	}
	if d.Recover(1) {
		t.Fatal("Recover accepted an Up PM")
	}
	st = d.Stats()
	if st.EvacCancelled != victims-1 {
		t.Fatalf("cancelled %d, want %d", st.EvacCancelled, victims-1)
	}
	if got := len(d.PendingEvacuations(nil)); got != 0 {
		t.Fatalf("pending %d after recovery", got)
	}
	if c.PMs[1].Health != cluster.Up {
		t.Fatal("PM not Up after recovery")
	}
	evacIdentity(t, d)
}

func TestMaintenanceRotationAndRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	c.FragRate(cluster.DefaultFragCores)
	d := NewDynamics(c, rng, nil, nil)
	d.SetFailures(FailureSpec{MaintenanceEvery: 20, DrainDuration: 5, EvacPerMinute: 100})

	st := d.Advance(21) // first drain fires at minute 20
	if st.Drains != 1 {
		t.Fatalf("drains %d after first interval, want 1", st.Drains)
	}
	if c.PMs[0].Health != cluster.Draining && c.HealthCounts()[int(cluster.Draining)] != 1 &&
		d.Stats().Recoveries == 0 {
		t.Fatal("rotation did not drain a PM")
	}
	st = d.Advance(60)
	total := d.Stats()
	if total.Drains < 3 {
		t.Fatalf("rolling maintenance stalled: %d drains in 81 minutes", total.Drains)
	}
	// Drained PMs empty fast (budget 100) and recover after DrainDuration.
	if total.Recoveries == 0 {
		t.Fatal("no drained PM ever recovered")
	}
	_ = st
	evacIdentity(t, d)
}

// TestFailureDynamicsInvariants is the randomized safety property: churn +
// Poisson crashes + rolling maintenance + recoveries, validated every chunk.
func TestFailureDynamicsInvariants(t *testing.T) {
	mix := []cluster.VMType{cluster.StandardTypes[0], cluster.StandardTypes[1], cluster.StandardTypes[4]}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := trace.MustProfile("tiny").GenerateMapping(rng)
		trace.AttachAffinity(c, 3, rng)
		c.FragRate(cluster.DefaultFragCores)
		d := NewDynamics(c, rng, mix, Diurnal(2))
		d.SetReuseSlots(true)
		d.SetFailures(FailureSpec{
			CrashRate:        0.05,
			RecoverAfter:     15,
			EvacDeadline:     8,
			MaintenanceEvery: 30,
			DrainDuration:    10,
			MaxUnavailFrac:   0.5,
		})
		for _, chunk := range []int{13, 60, 7, 120} {
			d.Advance(chunk)
			evacIdentity(t, d)
		}
		st := d.Stats()
		if st.Crashes+st.Drains == 0 {
			t.Fatalf("seed %d: no failure events in 200 minutes", seed)
		}
	}
}

// TestStatsSubCoversFailureCounters guards the delta-snapshot path: a new
// counter that Sub forgets would silently report zero to every consumer.
func TestStatsSubCoversFailureCounters(t *testing.T) {
	a := Stats{Minutes: 10, Crashes: 5, Drains: 4, Recoveries: 3, Evacuated: 7, EvacCancelled: 2, EvacLost: 1}
	b := Stats{Minutes: 4, Crashes: 2, Drains: 1, Recoveries: 1, Evacuated: 3, EvacCancelled: 1, EvacLost: 0}
	got := a.Sub(b)
	want := Stats{Minutes: 6, Crashes: 3, Drains: 3, Recoveries: 2, Evacuated: 4, EvacCancelled: 1, EvacLost: 1}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}
