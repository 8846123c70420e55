package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vmr2l/internal/cluster"
)

// TestCountedSourceMatchesStdlib: wrapping must be observationally free —
// the counted stream is the stdlib stream.
func TestCountedSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := rand.New(rand.NewSource(seed))
		src := NewCountedSource(seed)
		got := rand.New(src)
		for i := 0; i < 200; i++ {
			switch i % 4 {
			case 0:
				if a, b := want.Float64(), got.Float64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d draw %d: Float64 %v != %v", seed, i, b, a)
				}
			case 1:
				if a, b := want.Intn(97), got.Intn(97); a != b {
					t.Fatalf("seed %d draw %d: Intn %d != %d", seed, i, b, a)
				}
			case 2:
				if a, b := want.Uint64(), got.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d != %d", seed, i, b, a)
				}
			case 3:
				if a, b := want.Int63(), got.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d != %d", seed, i, b, a)
				}
			}
		}
		if src.Draws() == 0 {
			t.Fatalf("seed %d: no draws counted", seed)
		}
	}
}

// TestCountedSourceSkipRestoresPosition: a fresh source skipped to a recorded
// position continues the identical stream.
func TestCountedSourceSkipRestoresPosition(t *testing.T) {
	src := NewCountedSource(99)
	rng := rand.New(src)
	for i := 0; i < 137; i++ {
		rng.Float64()
		rng.Intn(13)
	}
	pos := src.Draws()

	restored := NewCountedSource(99)
	restored.Skip(pos)
	if restored.Draws() != pos {
		t.Fatalf("draws after skip = %d, want %d", restored.Draws(), pos)
	}
	rng2 := rand.New(restored)
	for i := 0; i < 100; i++ {
		a, b := rng.Float64(), rng2.Float64()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("draw %d after restore: %v != %v", i, b, a)
		}
	}
}

// buildStateTestDynamics builds a failure-enabled engine over a populated
// two-PM cluster driven by a counted source.
func buildStateTestDynamics(seed int64) (*Dynamics, *CountedSource) {
	src := NewCountedSource(seed)
	rng := rand.New(src)
	c := cluster.New(4, cluster.PMSmall)
	for i := 0; i < 24; i++ {
		id := c.AddVM(cluster.StandardTypes[i%3])
		BestFit(c, id)
	}
	d := NewDynamics(c, rng, cluster.StandardTypes, Constant(3))
	d.SetReuseSlots(true)
	d.SetFailures(FailureSpec{
		CrashRate:     0.15,
		RecoverAfter:  8,
		EvacDeadline:  5,
		EvacPerMinute: 2,
	})
	return d, src
}

// restoreFromExport rebuilds an engine from an exported state, the way the
// service snapshot path does: cloned cluster, fresh fast-forwarded source,
// same constructor arguments, then ImportState.
func restoreFromExport(t *testing.T, d *Dynamics, seed int64, src *CountedSource) *Dynamics {
	t.Helper()
	st := d.ExportState()
	c2 := d.c.Clone()
	src2 := NewCountedSource(seed)
	src2.Skip(src.Draws())
	d2 := NewDynamics(c2, rand.New(src2), d.mix, Constant(3))
	if d.fail != nil && d.fail.on {
		d2.SetFailures(d.fail.spec)
	}
	if err := d2.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	return d2
}

// TestExportImportBitIdenticalAdvance is the core durability invariant:
// export mid-run (with pending evacuations and crashed PMs in play), restore
// onto a cloned cluster, and every subsequent Advance must match the
// uninterrupted engine exactly — stats, clock, RNG position, and the full
// cluster state down to fragment-rate float bits.
func TestExportImportBitIdenticalAdvance(t *testing.T) {
	for _, seed := range []int64{1, 5, 23, 77} {
		d, src := buildStateTestDynamics(seed)
		d.Advance(17) // run into failure territory
		d.Crash(0)    // guarantee a mid-evacuation snapshot state
		d2 := restoreFromExport(t, d, seed, src)

		if !reflect.DeepEqual(d.ExportState(), d2.ExportState()) {
			t.Fatalf("seed %d: restored state differs immediately after import", seed)
		}
		for step := 0; step < 12; step++ {
			s1 := d.Advance(3)
			s2 := d2.Advance(3)
			if s1 != s2 {
				t.Fatalf("seed %d step %d: stats diverged: %+v != %+v", seed, step, s2, s1)
			}
			c1, c2 := d.c, d2.c
			if a, b := c1.FragRate(cluster.DefaultFragCores), c2.FragRate(cluster.DefaultFragCores); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d step %d: FR diverged: %v != %v", seed, step, b, a)
			}
			if !reflect.DeepEqual(c1.VMs, c2.VMs) {
				t.Fatalf("seed %d step %d: VM records diverged", seed, step)
			}
			for pm := range c1.PMs {
				if !reflect.DeepEqual(c1.PMs[pm].VMs, c2.PMs[pm].VMs) {
					t.Fatalf("seed %d step %d: pm %d hosted-VM order diverged: %v != %v",
						seed, step, pm, c2.PMs[pm].VMs, c1.PMs[pm].VMs)
				}
				if c1.PMs[pm].Health != c2.PMs[pm].Health {
					t.Fatalf("seed %d step %d: pm %d health diverged", seed, step, pm)
				}
			}
			if err := d2.CheckFailureInvariants(); err != nil {
				t.Fatalf("seed %d step %d: restored engine: %v", seed, step, err)
			}
		}
	}
}

// TestImportStateValidates: corrupt references must be refused, not crash
// later.
func TestImportStateValidates(t *testing.T) {
	d, _ := buildStateTestDynamics(3)
	d.Advance(5)
	st := d.ExportState()

	bad := st
	bad.FreeIDs = []int{99999}
	if err := d.ImportState(bad); err == nil {
		t.Fatal("out-of-range free id accepted")
	}
	bad = st
	bad.Fail = &FailState{Evacs: []Evacuation{{VM: -1, PM: 0, Deadline: 3}}}
	if err := d.ImportState(bad); err == nil {
		t.Fatal("out-of-range evacuation vm accepted")
	}
	bad = st
	bad.Fail = &FailState{Evacs: []Evacuation{{VM: 0, PM: 12345, Deadline: 3}}}
	if err := d.ImportState(bad); err == nil {
		t.Fatal("out-of-range evacuation pm accepted")
	}
}
