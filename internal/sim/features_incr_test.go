package sim

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
)

// buildIncrCluster makes a small random cluster with headroom for churn.
func buildIncrCluster(rng *rand.Rand) *cluster.Cluster {
	pt := cluster.PMType{Name: "t", CPUPerNuma: 16, MemPerNuma: 64}
	c := cluster.New(10, pt)
	for i := 0; i < 30; i++ {
		vt := cluster.VMType{CPU: 1 + rng.Intn(4), Numas: 1}
		vt.Mem = vt.CPU * 2
		id := c.AddVM(vt)
		if rng.Intn(5) > 0 {
			_ = c.Place(id, rng.Intn(10), rng.Intn(cluster.NumasPerPM))
		}
	}
	return c
}

// assertFeaturesEqual compares every feature row and HostPM bit-for-bit.
func assertFeaturesEqual(t *testing.T, step int, got, want *Features) {
	t.Helper()
	if len(got.PM) != len(want.PM) || len(got.VM) != len(want.VM) {
		t.Fatalf("step %d: shape (%d,%d) != (%d,%d)",
			step, len(got.PM), len(got.VM), len(want.PM), len(want.VM))
	}
	for i := range want.PM {
		for col, w := range want.PM[i] {
			if got.PM[i][col] != w {
				t.Fatalf("step %d: PM[%d][%d] = %v, want %v", step, i, col, got.PM[i][col], w)
			}
		}
	}
	for v := range want.VM {
		for col, w := range want.VM[v] {
			if got.VM[v][col] != w {
				t.Fatalf("step %d: VM[%d][%d] = %v, want %v", step, v, col, got.VM[v][col], w)
			}
		}
	}
	for v, w := range want.HostPM {
		if got.HostPM[v] != w {
			t.Fatalf("step %d: HostPM[%d] = %d, want %d", step, v, got.HostPM[v], w)
		}
	}
}

// TestUpdateIntoBitParity drives random mutation streams through the journal
// + UpdateInto pipeline and checks bit-parity against a fresh full
// extraction after every step — the tentpole's part (2) contract.
func TestUpdateIntoBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		c := buildIncrCluster(rng)
		var inc Features
		res := inc.UpdateInto(c, nil, nil, c.DirtyFull())
		if !res.PMAll || !res.VMAll {
			t.Fatal("first update must report all rows dirty")
		}
		c.ClearDirty()
		assertFeaturesEqual(t, -1, &inc, extract(c))
		for step := 0; step < 60; step++ {
			switch rng.Intn(5) {
			case 0, 1:
				_ = c.Migrate(rng.Intn(len(c.VMs)), rng.Intn(len(c.PMs)), cluster.DefaultFragCores)
			case 2:
				_ = c.Remove(rng.Intn(len(c.VMs)))
			case 3:
				_ = c.Place(rng.Intn(len(c.VMs)), rng.Intn(len(c.PMs)), rng.Intn(cluster.NumasPerPM))
			case 4:
				_ = c.SetHealth(rng.Intn(len(c.PMs)), cluster.Health(rng.Intn(3)))
			}
			inc.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), c.DirtyFull())
			c.ClearDirty()
			assertFeaturesEqual(t, step, &inc, extract(c))
		}
	}
}

// TestUpdateIntoReportedRowsCoverChanges verifies the no-silent-loss side of
// the result: every row whose normalized values differ from the previous
// step is covered by the reported dirty rows (or an All flag).
func TestUpdateIntoReportedRowsCoverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := buildIncrCluster(rng)
	var inc Features
	inc.UpdateInto(c, nil, nil, true)
	c.ClearDirty()
	prev := extract(c)
	for step := 0; step < 150; step++ {
		_ = c.Migrate(rng.Intn(len(c.VMs)), rng.Intn(len(c.PMs)), cluster.DefaultFragCores)
		res := inc.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), c.DirtyFull())
		c.ClearDirty()
		cur := extract(c)
		if !res.PMAll {
			reported := map[int]bool{}
			for _, i := range res.PMRows {
				reported[i] = true
			}
			for i := range cur.PM {
				for col := range cur.PM[i] {
					if cur.PM[i][col] != prev.PM[i][col] && !reported[i] {
						t.Fatalf("step %d: PM row %d changed but was not reported", step, i)
					}
				}
			}
		}
		if !res.VMAll {
			reported := map[int]bool{}
			for _, v := range res.VMRows {
				reported[v] = true
			}
			for v := range cur.VM {
				for col := range cur.VM[v] {
					if cur.VM[v][col] != prev.VM[v][col] && !reported[v] {
						t.Fatalf("step %d: VM row %d changed but was not reported", step, v)
					}
				}
			}
		}
		prev = cur
	}
}

// TestUpdateIntoStaleAfterExtractInto pins the invalidation contract: a
// full in-place extraction through the non-incremental path goes stale and
// the next UpdateInto must not trust the raw cache.
func TestUpdateIntoStaleAfterExtractInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := buildIncrCluster(rng)
	var f Features
	f.UpdateInto(c, nil, nil, true)
	c.ClearDirty()
	ExtractInto(&f, c) // destroys the raw cache (normalizes in place)
	_ = c.Migrate(0, 3, cluster.DefaultFragCores)
	res := f.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), c.DirtyFull())
	if !res.PMAll || !res.VMAll {
		t.Fatal("UpdateInto after ExtractInto must fall back to a full refresh")
	}
	assertFeaturesEqual(t, 0, &f, extract(c))
}

// BenchmarkUpdateIntoSteady measures the steady-state incremental update
// (one migration per step) and pins zero allocations.
func BenchmarkUpdateIntoSteady(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := buildIncrCluster(rng)
	var f Features
	f.UpdateInto(c, nil, nil, true)
	c.ClearDirty()
	// Find a VM that can bounce between two PMs.
	vm, pmA, pmB := -1, -1, -1
	for v := range c.VMs {
		if !c.VMs[v].Placed() {
			continue
		}
		for p := range c.PMs {
			if c.CanHost(v, p) {
				vm, pmA, pmB = v, c.VMs[v].PM, p
				break
			}
		}
		if vm >= 0 {
			break
		}
	}
	if vm < 0 {
		b.Skip("no bounceable VM in fixture")
	}
	dst := pmB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Migrate(vm, dst, cluster.DefaultFragCores); err != nil {
			b.Fatal(err)
		}
		f.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), c.DirtyFull())
		c.ClearDirty()
		if dst == pmB {
			dst = pmA
		} else {
			dst = pmB
		}
	}
}
