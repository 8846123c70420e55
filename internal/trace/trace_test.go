package trace

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmr2l/internal/cluster"
)

// usedCPUFrac returns the fraction of total cluster CPU in use.
func usedCPUFrac(c *cluster.Cluster) float64 {
	capTotal, free := 0, c.FreeCPU()
	for i := range c.PMs {
		capTotal += c.PMs[i].CPUCap()
	}
	if capTotal == 0 {
		return 0
	}
	return float64(capTotal-free) / float64(capTotal)
}

func TestProfilesKnownNames(t *testing.T) {
	names := []string{
		"medium", "medium-small", "tiny", "large", "large-small",
		"multi-resource", "multi-resource-small",
		"workload-low", "workload-low-small",
		"workload-mid", "workload-mid-small", "workload-high",
	}
	for _, n := range names {
		p, err := Profiles(n)
		if err != nil {
			t.Fatalf("Profiles(%q): %v", n, err)
		}
		if p.NumPMs <= 0 || len(p.VMMix) == 0 || len(p.PMTypes) == 0 {
			t.Errorf("Profiles(%q) incomplete: %+v", n, p)
		}
	}
	if _, err := Profiles("nope"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestMustProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProfile should panic on unknown name")
		}
	}()
	MustProfile("definitely-not-a-profile")
}

func TestGenerateMappingValidAndAtTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := MustProfile("medium-small")
	c := p.GenerateMapping(rng)
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	if len(c.PMs) != p.NumPMs {
		t.Fatalf("pm count = %d, want %d", len(c.PMs), p.NumPMs)
	}
	got := usedCPUFrac(c)
	if math.Abs(got-p.TargetUsage) > 0.12 {
		t.Errorf("usage = %.3f, want ~%.2f", got, p.TargetUsage)
	}
	// Every VM placed, ids dense.
	for i := range c.VMs {
		if !c.VMs[i].Placed() {
			t.Fatalf("vm %d unplaced after compact", i)
		}
		if c.VMs[i].ID != i {
			t.Fatalf("vm %d has id %d", i, c.VMs[i].ID)
		}
	}
	// Fragmentation exists: churn should leave a nonzero fragment rate.
	if c.FragRate(16) == 0 {
		t.Error("expected nonzero fragment rate after churn")
	}
}

func TestWorkloadLevelsAreOrderedAndSeparated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var mean [3]float64
	for i, name := range []string{"workload-low-small", "workload-mid-small", "medium-small"} {
		p := MustProfile(name)
		sum := 0.0
		const k = 5
		for j := 0; j < k; j++ {
			sum += usedCPUFrac(p.GenerateMapping(rng))
		}
		mean[i] = sum / k
	}
	if !(mean[0] < mean[1] && mean[1] < mean[2]) {
		t.Errorf("workload means not ordered: %v", mean)
	}
	if mean[1]-mean[0] < 0.05 || mean[2]-mean[1] < 0.05 {
		t.Errorf("workload levels overlap too much: %v", mean)
	}
}

func TestMultiResourceHasMemoryIntensiveVMs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := MustProfile("multi-resource-small")
	c := p.GenerateMapping(rng)
	ratios := map[int]int{}
	for i := range c.VMs {
		ratios[c.VMs[i].Mem/c.VMs[i].CPU]++
	}
	if len(ratios) < 2 {
		t.Errorf("expected multiple CPU:Mem ratios, got %v", ratios)
	}
	if ratios[2] == 0 {
		t.Error("standard 1:2 VMs missing")
	}
	found8 := ratios[8] > 0
	found4 := ratios[4] > 0
	if !found4 && !found8 {
		t.Errorf("no memory-intensive VMs generated: %v", ratios)
	}
}

func TestGenerateSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := MustProfile("tiny")
	d := p.Generate(rng, 12)
	if len(d.Train) != 10 || len(d.Val) != 1 || len(d.Test) != 1 {
		t.Fatalf("split = %d/%d/%d, want 10/1/1", len(d.Train), len(d.Val), len(d.Test))
	}
	if got := len(d.All()); got != 12 {
		t.Fatalf("All() = %d, want 12", got)
	}
	for _, c := range d.All() {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMappingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := MustProfile("tiny")
	c := p.GenerateMapping(rng)
	AttachAffinity(c, 2, rng)
	var buf bytes.Buffer
	if err := WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMapping(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.VMs) != len(c.VMs) || len(got.PMs) != len(c.PMs) {
		t.Fatalf("size mismatch after round trip")
	}
	if got.Fragment(16) != c.Fragment(16) {
		t.Errorf("fragment changed: %d != %d", got.Fragment(16), c.Fragment(16))
	}
	if got.AntiAffinity != c.AntiAffinity {
		t.Error("anti-affinity flag lost")
	}
	for i := range c.VMs {
		if got.VMs[i].Service != c.VMs[i].Service {
			t.Fatalf("vm %d service mismatch", i)
		}
	}
}

func TestReadMappingRejectsGarbage(t *testing.T) {
	if _, err := ReadMapping(bytes.NewBufferString("{ not json")); err == nil {
		t.Error("garbage accepted")
	}
	// VM referencing unknown PM.
	if _, err := ReadMapping(bytes.NewBufferString(
		`{"pms":[],"vms":[{"cpu":2,"mem":4,"numas":1,"pm":3,"numa":0,"service":-1}]}`)); err == nil {
		t.Error("dangling pm reference accepted")
	}
}

func TestSaveLoadDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := MustProfile("tiny")
	d := p.Generate(rng, 6)
	dir := t.TempDir()
	if err := SaveDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(dir, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Train) != len(d.Train) || len(got.Val) != len(d.Val) || len(got.Test) != len(d.Test) {
		t.Fatalf("split sizes changed after save/load")
	}
	for i := range d.Train {
		if got.Train[i].Fragment(16) != d.Train[i].Fragment(16) {
			t.Errorf("train[%d] fragment mismatch", i)
		}
	}
}

func TestAttachAffinityLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := MustProfile("medium-small")
	c := p.GenerateMapping(rng)
	prev := -1.0
	for _, level := range []int{0, 1, 2, 4, 8} {
		cp := c.Clone()
		ratio := AttachAffinity(cp, level, rng)
		if err := cp.Validate(); err != nil {
			t.Fatalf("level %d: initial state infeasible: %v", level, err)
		}
		if level == 0 && ratio != 0 {
			t.Errorf("level 0 ratio = %v, want 0", ratio)
		}
		if ratio < prev-0.005 {
			t.Errorf("ratio not monotone: level %d ratio %.4f < prev %.4f", level, ratio, prev)
		}
		prev = ratio
	}
}

func TestUsageCDFSortedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	p := MustProfile("tiny")
	cdf := UsageCDF([]*cluster.Cluster{p.GenerateMapping(rng), p.GenerateMapping(rng)})
	if len(cdf) != 12 {
		t.Fatalf("cdf length = %d, want 12", len(cdf))
	}
	for i, u := range cdf {
		if u < 0 || u > 1 {
			t.Fatalf("usage out of range: %v", u)
		}
		if i > 0 && cdf[i] < cdf[i-1] {
			t.Fatal("cdf not sorted")
		}
	}
}

func TestPropertyGeneratedMappingsAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := MustProfile("tiny")
		c := p.GenerateMapping(rng)
		return c.Validate() == nil && c.CountPlaced() == len(c.VMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateFragmented(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := MustProfile("tiny")
	c := p.GenerateFragmented(rng, 0.15, 50)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if fr := c.FragRate(16); fr < 0.1 {
		t.Errorf("fragmented mapping FR %.4f below expectation", fr)
	}
	// maxTries=1 returns the first sample regardless of FR.
	c1 := p.GenerateFragmented(rand.New(rand.NewSource(10)), 0.99, 1)
	if c1 == nil {
		t.Fatal("nil mapping")
	}
}
