package cluster

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPlace(t *testing.T, c *Cluster, vm, pm, numa int) {
	t.Helper()
	if err := c.Place(vm, pm, numa); err != nil {
		t.Fatalf("Place(%d,%d,%d): %v", vm, pm, numa, err)
	}
}

func TestPaperFragmentExample(t *testing.T) {
	// Paper Fig. 2/3: PM1 with 12 free, PM2 with 20 free -> FR 50%; after
	// moving a 4-core VM from PM1 to PM2 both have 16 free -> FR 0%.
	// Model each PM as one 32-core NUMA pair; keep NUMA1 full so only NUMA0
	// carries free CPU, matching the single-pool arithmetic of the example.
	pt := PMType{Name: "t", CPUPerNuma: 32, MemPerNuma: 256}
	c := New(2, pt)
	filler := VMType{Name: "filler", CPU: 32, Mem: 32, Numas: 1}
	// Fill NUMA 1 of both PMs entirely.
	mustPlace(t, c, c.AddVM(filler), 0, 1)
	mustPlace(t, c, c.AddVM(filler), 1, 1)
	// PM0 NUMA0: use 20 cores -> 12 free. PM1 NUMA0: use 12 -> 20 free.
	mustPlace(t, c, c.AddVM(VMType{CPU: 16, Mem: 16, Numas: 1}), 0, 0)
	v4 := c.AddVM(VMType{CPU: 4, Mem: 4, Numas: 1})
	mustPlace(t, c, v4, 0, 0)
	mustPlace(t, c, c.AddVM(VMType{CPU: 12, Mem: 12, Numas: 1}), 1, 0)

	if got := c.PMs[0].FreeCPU(); got != 12 {
		t.Fatalf("PM0 free = %d, want 12", got)
	}
	if got := c.PMs[1].FreeCPU(); got != 20 {
		t.Fatalf("PM1 free = %d, want 20", got)
	}
	if got := c.Fragment(16); got != 16 {
		t.Fatalf("fragment = %d, want 16", got)
	}
	if got := c.FragRate(16); got != 0.5 {
		t.Fatalf("FR = %v, want 0.5", got)
	}
	if err := c.Migrate(v4, 1, 16); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if got := c.FragRate(16); got != 0 {
		t.Fatalf("FR after = %v, want 0", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStandardTypesTable1(t *testing.T) {
	want := map[string][3]int{ // cpu, mem, numas
		"large": {2, 4, 1}, "xlarge": {4, 8, 1}, "2xlarge": {8, 16, 1},
		"4xlarge": {16, 32, 1}, "8xlarge": {32, 64, 2}, "16xlarge": {64, 128, 2},
		"22xlarge": {88, 176, 2},
	}
	if len(StandardTypes) != len(want) {
		t.Fatalf("got %d types, want %d", len(StandardTypes), len(want))
	}
	for _, typ := range StandardTypes {
		w, ok := want[typ.Name]
		if !ok {
			t.Fatalf("unexpected type %q", typ.Name)
		}
		if typ.CPU != w[0] || typ.Mem != w[1] || typ.Numas != w[2] {
			t.Errorf("%s = %+v, want cpu=%d mem=%d numas=%d", typ.Name, typ, w[0], w[1], w[2])
		}
		if typ.Mem != 2*typ.CPU {
			t.Errorf("%s: CPU:Mem ratio must be 1:2", typ.Name)
		}
	}
	if _, ok := TypeByName("4xlarge"); !ok {
		t.Error("TypeByName(4xlarge) not found")
	}
	if _, ok := TypeByName("nope"); ok {
		t.Error("TypeByName(nope) found")
	}
}

func TestMemoryIntensive(t *testing.T) {
	base, _ := TypeByName("2xlarge")
	mi := MemoryIntensive(base, 8)
	if mi.Mem != 64 || mi.CPU != 8 {
		t.Fatalf("got %+v, want mem=64 cpu=8", mi)
	}
	if mi.Name == base.Name {
		t.Error("name should change")
	}
}

func TestDoubleNumaPlacement(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 44, MemPerNuma: 128})
	v := c.AddVM(VMType{CPU: 64, Mem: 128, Numas: 2})
	if err := c.Place(v, 0, 0); err != nil {
		t.Fatalf("Place: %v", err)
	}
	for j := 0; j < NumasPerPM; j++ {
		if got := c.PMs[0].Numas[j].CPUUsed; got != 32 {
			t.Errorf("numa %d cpu used = %d, want 32", j, got)
		}
		if got := c.PMs[0].Numas[j].MemUsed; got != 64 {
			t.Errorf("numa %d mem used = %d, want 64", j, got)
		}
	}
	// A second 64-core double-NUMA VM needs 32 per NUMA; only 12 left.
	v2 := c.AddVM(VMType{CPU: 64, Mem: 128, Numas: 2})
	if err := c.Place(v2, 0, 0); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if err := c.Remove(v); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if c.PMs[0].FreeCPU() != 88 {
		t.Errorf("free cpu = %d, want 88", c.PMs[0].FreeCPU())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceErrors(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 8, MemPerNuma: 16})
	v := c.AddVM(VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Place(v, 5, 0); !errors.Is(err, ErrBadReference) {
		t.Errorf("bad pm: got %v", err)
	}
	if err := c.Place(v, 0, 7); !errors.Is(err, ErrBadReference) {
		t.Errorf("bad numa: got %v", err)
	}
	mustPlace(t, c, v, 0, 0)
	if err := c.Place(v, 0, 1); !errors.Is(err, ErrAlreadyHere) {
		t.Errorf("double place: got %v", err)
	}
	big := c.AddVM(VMType{CPU: 16, Mem: 8, Numas: 1})
	if err := c.Place(big, 0, 0); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("oversize: got %v", err)
	}
	if err := c.Remove(big); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("remove unplaced: got %v", err)
	}
	if err := c.Remove(99); !errors.Is(err, ErrBadReference) {
		t.Errorf("remove unknown: got %v", err)
	}
}

func TestMigrateErrors(t *testing.T) {
	c := New(2, PMType{CPUPerNuma: 8, MemPerNuma: 16})
	v := c.AddVM(VMType{CPU: 4, Mem: 8, Numas: 1})
	if err := c.Migrate(v, 1, 16); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("migrate unplaced: got %v", err)
	}
	mustPlace(t, c, v, 0, 0)
	if err := c.Migrate(v, 0, 16); !errors.Is(err, ErrAlreadyHere) {
		t.Errorf("migrate to self: got %v", err)
	}
	// Fill PM1 so the move fails, then check the VM stayed on PM0.
	blocker := c.AddVM(VMType{CPU: 8, Mem: 16, Numas: 1})
	blocker2 := c.AddVM(VMType{CPU: 8, Mem: 16, Numas: 1})
	mustPlace(t, c, blocker, 1, 0)
	mustPlace(t, c, blocker2, 1, 1)
	if err := c.Migrate(v, 1, 16); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("migrate full: got %v", err)
	}
	if c.VMs[v].PM != 0 {
		t.Errorf("vm moved despite error: pm=%d", c.VMs[v].PM)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAntiAffinity(t *testing.T) {
	c := New(2, PMType{CPUPerNuma: 32, MemPerNuma: 64})
	a := c.AddVM(VMType{CPU: 4, Mem: 8, Numas: 1})
	b := c.AddVM(VMType{CPU: 4, Mem: 8, Numas: 1})
	c.VMs[a].Service = 7
	c.VMs[b].Service = 7
	mustPlace(t, c, a, 0, 0)
	c.EnableAntiAffinity()
	if err := c.Place(b, 0, 0); !errors.Is(err, ErrAffinity) {
		t.Fatalf("want ErrAffinity, got %v", err)
	}
	mustPlace(t, c, b, 1, 0)
	if c.CanHost(b, 0) {
		t.Error("CanHost should forbid colocating service 7")
	}
	if err := c.Migrate(b, 0, 16); err == nil {
		t.Error("Migrate should fail on affinity conflict")
	}
	// Moving a away frees PM0 for b.
	if err := c.Migrate(a, 1, 16); err == nil {
		t.Error("a and b share service; migrating a to PM1 must fail")
	}
	if err := c.Remove(a); err != nil {
		t.Fatal(err)
	}
	if !c.CanHost(b, 0) {
		t.Error("PM0 should accept b after a left")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBestNuma(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 32, MemPerNuma: 64})
	// NUMA0: 20 free after filler; NUMA1: 32 free.
	mustPlace(t, c, c.AddVM(VMType{CPU: 12, Mem: 12, Numas: 1}), 0, 0)
	v := c.AddVM(VMType{CPU: 4, Mem: 8, Numas: 1})
	// After placing 4 cores: NUMA0 -> 16 free (frag 0), NUMA1 -> 28 (frag 12).
	if got := c.BestNuma(v, 0, 16); got != 0 {
		t.Errorf("BestNuma = %d, want 0", got)
	}
	// A 24-core VM only fits NUMA1.
	v2 := c.AddVM(VMType{CPU: 24, Mem: 48, Numas: 1})
	if got := c.BestNuma(v2, 0, 16); got != 1 {
		t.Errorf("BestNuma = %d, want 1", got)
	}
	// A 40-core VM fits nowhere.
	v3 := c.AddVM(VMType{CPU: 40, Mem: 60, Numas: 1})
	if got := c.BestNuma(v3, 0, 16); got != -1 {
		t.Errorf("BestNuma = %d, want -1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := New(2, PMType{CPUPerNuma: 32, MemPerNuma: 64})
	v := c.AddVM(VMType{CPU: 8, Mem: 16, Numas: 1})
	c.VMs[v].Service = 3
	mustPlace(t, c, v, 0, 0)
	c.EnableAntiAffinity()
	cp := c.Clone()
	if err := cp.Migrate(v, 1, 16); err != nil {
		t.Fatal(err)
	}
	if c.VMs[v].PM != 0 {
		t.Error("clone mutation leaked into original (VM record)")
	}
	if len(c.PMs[0].VMs) != 1 || len(cp.PMs[0].VMs) != 0 {
		t.Error("clone mutation leaked into original (PM list)")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFragRateEmptyAndFull(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 16, MemPerNuma: 32})
	if got := c.FragRate(16); got != 0 {
		t.Errorf("empty cluster FR = %v, want 0 (32 free, frag 0)", got)
	}
	mustPlace(t, c, c.AddVM(VMType{CPU: 16, Mem: 32, Numas: 1}), 0, 0)
	mustPlace(t, c, c.AddVM(VMType{CPU: 16, Mem: 32, Numas: 1}), 0, 1)
	if got := c.FragRate(16); got != 0 {
		t.Errorf("full cluster FR = %v, want 0", got)
	}
	if got := c.MemFragRate(64); got != 0 {
		t.Errorf("full cluster mem FR = %v, want 0", got)
	}
}

// randomCluster builds a random consistent cluster for property tests.
func randomCluster(rng *rand.Rand, pms, vms int) *Cluster {
	c := New(pms, PMType{CPUPerNuma: 44, MemPerNuma: 128})
	for i := 0; i < vms; i++ {
		typ := StandardTypes[rng.Intn(len(StandardTypes))]
		id := c.AddVM(typ)
		// Try a few random placements; leave unplaced on failure.
		for attempt := 0; attempt < 8; attempt++ {
			pm := rng.Intn(pms)
			numa := rng.Intn(NumasPerPM)
			if c.VMs[id].Numas == 2 {
				numa = 0
			}
			if c.Place(id, pm, numa) == nil {
				break
			}
		}
	}
	return c
}

func TestPropertyRandomMigrationsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCluster(rng, 4+rng.Intn(4), 20+rng.Intn(20))
		if err := c.Validate(); err != nil {
			t.Logf("initial invalid: %v", err)
			return false
		}
		placedBefore := c.CountPlaced()
		totalCPU := 0
		for i := range c.VMs {
			if c.VMs[i].Placed() {
				totalCPU += c.VMs[i].CPU
			}
		}
		for step := 0; step < 30; step++ {
			vm := rng.Intn(len(c.VMs))
			pm := rng.Intn(len(c.PMs))
			err := c.Migrate(vm, pm, 16)
			legal := c.VMs[vm].Placed() && c.VMs[vm].PM == pm
			if err == nil && !legal {
				t.Logf("migrate reported success but vm not on pm")
				return false
			}
		}
		if c.CountPlaced() != placedBefore {
			t.Logf("placed count changed")
			return false
		}
		usedCPU := 0
		for i := range c.PMs {
			for j := range c.PMs[i].Numas {
				usedCPU += c.PMs[i].Numas[j].CPUUsed
			}
		}
		if usedCPU != totalCPU {
			t.Logf("CPU not conserved: %d != %d", usedCPU, totalCPU)
			return false
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFragmentBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCluster(rng, 3+rng.Intn(5), 10+rng.Intn(30))
		frag := c.Fragment(16)
		if frag < 0 || frag > c.FreeCPU() {
			return false
		}
		// Per NUMA, fragment < 16.
		for i := range c.PMs {
			for j := range c.PMs[i].Numas {
				if f := c.PMs[i].Numas[j].Fragment(16); f < 0 || f >= 16 {
					return false
				}
			}
		}
		fr := c.FragRate(16)
		return fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCPUUsage(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 32, MemPerNuma: 64})
	if got := c.PMs[0].CPUUsage(); got != 0 {
		t.Errorf("usage = %v, want 0", got)
	}
	mustPlace(t, c, c.AddVM(VMType{CPU: 32, Mem: 32, Numas: 1}), 0, 0)
	if got := c.PMs[0].CPUUsage(); got != 0.5 {
		t.Errorf("usage = %v, want 0.5", got)
	}
	var empty PM
	if got := empty.CPUUsage(); got != 0 {
		t.Errorf("zero-cap usage = %v, want 0", got)
	}
}

func TestValidateRejectsNegativeCapacity(t *testing.T) {
	c := New(1, PMType{CPUPerNuma: 8, MemPerNuma: 8})
	c.PMs[0].Numas[0].CPUCap = -4
	if err := c.Validate(); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// TestCloneAndCopyFromAllocs pins the per-call heap allocations of the two
// state copies every episode reset, fork and snapshot goes through. Clone
// allocates a fixed handful of flat slices whatever the cluster size, plus
// one for the anti-affinity index when it is enabled. CopyFrom into a
// same-shape cluster reuses its storage and allocates nothing.
func TestCloneAndCopyFromAllocs(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		c := randomCluster(rand.New(rand.NewSource(8)), 12, 60)
		cloneMax := 5.0
		if affinity {
			for v := range c.VMs {
				c.VMs[v].Service = v % 5
			}
			c.EnableAntiAffinity()
			cloneMax = 6
		}
		c.FragRate(DefaultFragCores) // warm the aggregates both copies carry
		dst := c.Clone()
		for _, tc := range []struct {
			name string
			max  float64
			f    func()
		}{
			{"Clone", cloneMax, func() { _ = c.Clone() }},
			{"CopyFrom", 0, func() { dst.CopyFrom(c) }},
		} {
			if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
				t.Errorf("%s (anti-affinity %v): %v allocs per call, want <= %v", tc.name, affinity, got, tc.max)
			}
		}
	}
}
