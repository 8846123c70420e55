package sched

import (
	"math"
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
)

func TestBestFitPrefersFragmentReduction(t *testing.T) {
	// PM0 NUMA0 has 20 free (frag 4); PM1 NUMA0 has 32 free (frag 0).
	// A 4-core VM on PM0 makes 16 free (frag 0, reduction 4); on PM1 it
	// makes 28 free (frag 12, reduction -12). Best-fit must pick PM0.
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	filler := c.AddVM(cluster.VMType{CPU: 12, Mem: 12, Numas: 1})
	if err := c.Place(filler, 0, 0); err != nil {
		t.Fatal(err)
	}
	// Fill second NUMAs so they don't interfere.
	for pm := 0; pm < 2; pm++ {
		id := c.AddVM(cluster.VMType{CPU: 32, Mem: 32, Numas: 1})
		if err := c.Place(id, pm, 1); err != nil {
			t.Fatal(err)
		}
	}
	v := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	if got := BestFit(c, v); got != 0 {
		t.Fatalf("BestFit = pm %d, want 0", got)
	}
	if c.VMs[v].PM != 0 {
		t.Fatal("vm not placed on chosen pm")
	}
}

func TestBestFitReturnsMinusOneWhenFull(t *testing.T) {
	c := cluster.New(1, cluster.PMType{CPUPerNuma: 4, MemPerNuma: 4})
	big := c.AddVM(cluster.VMType{CPU: 16, Mem: 16, Numas: 1})
	if got := BestFit(c, big); got != -1 {
		t.Fatalf("BestFit on full cluster = %d, want -1", got)
	}
}

func TestBestFitRespectsAffinity(t *testing.T) {
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	a := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	c.VMs[a].Service = 1
	if err := c.Place(a, 0, 0); err != nil {
		t.Fatal(err)
	}
	c.EnableAntiAffinity()
	b := c.AddVM(cluster.VMType{CPU: 4, Mem: 8, Numas: 1})
	c.VMs[b].Service = 1
	if got := BestFit(c, b); got != 1 {
		t.Fatalf("BestFit = %d, want 1 (affinity forbids pm 0)", got)
	}
}

func TestDiurnalRateShape(t *testing.T) {
	// Trough around 04:00, peak around 16:00 (paper Fig. 1: VMR runs in the
	// early-morning lull).
	trough := DiurnalRate(4*60, 10)
	peak := DiurnalRate(16*60, 10)
	if trough >= peak {
		t.Fatalf("trough %v >= peak %v", trough, peak)
	}
	if peak > 10.5 || trough < 0 {
		t.Fatalf("rates out of range: trough %v peak %v", trough, peak)
	}
	// Scale linearity.
	if math.Abs(DiurnalRate(600, 20)-2*DiurnalRate(600, 10)) > 1e-9 {
		t.Error("peak scaling not linear")
	}
}

func TestPoissonMeanRoughlyLambda(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const lambda = 5.0
	sum := 0
	const n = 2000
	for i := 0; i < n; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / n
	if math.Abs(mean-lambda) > 0.3 {
		t.Fatalf("poisson mean = %v, want ~%v", mean, lambda)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Error("non-positive lambda must yield 0")
	}
}

// TestBestFitNeverTargetsDegradedPM is the placement-health regression test:
// whatever capacity a draining or down PM advertises, neither BestFit nor the
// unplaced-affinity path may choose it.
func TestBestFitNeverTargetsDegradedPM(t *testing.T) {
	for _, h := range []cluster.Health{cluster.Draining, cluster.Down} {
		// Two PMs: PM 0 empty (the tempting best-fit target), PM 1 half full.
		c := cluster.New(2, cluster.PMSmall)
		if err := c.Place(c.AddVM(cluster.VMType{CPU: 20, Mem: 64, Numas: 1}), 1, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.SetHealth(0, h); err != nil {
			t.Fatal(err)
		}
		id := c.AddVM(cluster.VMType{CPU: 8, Mem: 16, Numas: 1})
		if pm := BestFit(c, id); pm != 1 {
			t.Fatalf("health %v: BestFit chose pm %d, want 1", h, pm)
		}
		if canHostUnplaced(c, c.AddVM(cluster.VMType{CPU: 8, Mem: 16, Numas: 1}), 0) {
			t.Fatalf("health %v: canHostUnplaced accepted a degraded PM", h)
		}
		// With every PM degraded, placement must fail outright.
		if err := c.SetHealth(1, h); err != nil {
			t.Fatal(err)
		}
		if pm := BestFit(c, c.AddVM(cluster.VMType{CPU: 1, Mem: 1, Numas: 1})); pm != -1 {
			t.Fatalf("health %v: BestFit placed onto a fully degraded fleet (pm %d)", h, pm)
		}
	}
}
