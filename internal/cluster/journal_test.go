package cluster

import (
	"math/rand"
	"testing"
)

// journalSnapshot captures the externally observable per-machine state the
// feature extractor reads: NUMA usage + health per PM, placement per VM.
type journalSnapshot struct {
	pm []PM
	vm []VM
}

func snapshotCluster(c *Cluster) journalSnapshot {
	s := journalSnapshot{pm: make([]PM, len(c.PMs)), vm: make([]VM, len(c.VMs))}
	copy(s.pm, c.PMs)
	copy(s.vm, c.VMs)
	for i := range s.pm {
		s.pm[i].VMs = append([]int(nil), c.PMs[i].VMs...)
	}
	return s
}

// diffSnapshot brute-force diffs the snapshot against the current cluster,
// returning the sets of PM/VM ids whose observable state changed.
func diffSnapshot(s journalSnapshot, c *Cluster) (pms, vms map[int]bool) {
	pms, vms = map[int]bool{}, map[int]bool{}
	for i := range c.PMs {
		if c.PMs[i].Numas != s.pm[i].Numas || c.PMs[i].Health != s.pm[i].Health {
			pms[i] = true
		}
	}
	for i := range c.VMs {
		if c.VMs[i].PM != s.vm[i].PM || c.VMs[i].Numa != s.vm[i].Numa {
			vms[i] = true
		}
	}
	return pms, vms
}

// buildJournalCluster makes a small random cluster with some placed VMs.
func buildJournalCluster(rng *rand.Rand) *Cluster {
	pt := PMType{Name: "t", CPUPerNuma: 16, MemPerNuma: 64}
	c := New(8, pt)
	for i := 0; i < 24; i++ {
		vt := VMType{CPU: 1 + rng.Intn(4), Numas: 1}
		vt.Mem = vt.CPU * 2
		id := c.AddVM(vt)
		if rng.Intn(4) > 0 {
			pm, numa := rng.Intn(len(c.PMs)), rng.Intn(NumasPerPM)
			_ = c.Place(id, pm, numa) // infeasible placements just stay unplaced
		}
	}
	return c
}

// TestJournalPropertySupersetOfDiff is the property test of the tentpole's
// part (1): after any mutation sequence, the brute-force diff of observable
// state is a subset of the journal's dirty sets (the journal may over-mark —
// rolled-back migrations — but must never under-mark).
func TestJournalPropertySupersetOfDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		c := buildJournalCluster(rng)
		tok := c.ClearDirty()
		if c.DirtyFull() {
			t.Fatal("DirtyFull immediately after ClearDirty")
		}
		if c.j.gen != tok {
			t.Fatalf("Generation %d != clear token %d with no mutations", c.j.gen, tok)
		}
		snap := snapshotCluster(c)
		nOps := rng.Intn(12)
		for op := 0; op < nOps; op++ {
			switch rng.Intn(4) {
			case 0: // migrate (may fail: journal still allowed to mark)
				vm, pm := rng.Intn(len(c.VMs)), rng.Intn(len(c.PMs))
				_ = c.Migrate(vm, pm, DefaultFragCores)
			case 1: // remove a placed VM
				vm := rng.Intn(len(c.VMs))
				_ = c.Remove(vm)
			case 2: // place an unplaced VM
				vm := rng.Intn(len(c.VMs))
				_ = c.Place(vm, rng.Intn(len(c.PMs)), rng.Intn(NumasPerPM))
			case 3: // health transition
				_ = c.SetHealth(rng.Intn(len(c.PMs)), Health(rng.Intn(3)))
			}
		}
		if c.LastClear() != tok {
			t.Fatalf("LastClear %d != token %d: mutations must not clear", c.LastClear(), tok)
		}
		changedPM, changedVM := diffSnapshot(snap, c)
		if c.DirtyFull() {
			continue // all-dirty trivially covers the diff
		}
		dirtyPM := map[int]bool{}
		for _, id := range c.DirtyPMs() {
			if id < 0 || id >= len(c.PMs) {
				t.Fatalf("dirty PM id %d out of range", id)
			}
			if dirtyPM[id] {
				t.Fatalf("PM id %d listed twice", id)
			}
			dirtyPM[id] = true
		}
		dirtyVM := map[int]bool{}
		for _, id := range c.DirtyVMs() {
			if id < 0 || id >= len(c.VMs) {
				t.Fatalf("dirty VM id %d out of range", id)
			}
			if dirtyVM[id] {
				t.Fatalf("VM id %d listed twice", id)
			}
			dirtyVM[id] = true
		}
		for id := range changedPM {
			if !dirtyPM[id] {
				t.Fatalf("PM %d changed but not journaled (dirty=%v)", id, c.DirtyPMs())
			}
		}
		for id := range changedVM {
			if !dirtyVM[id] {
				t.Fatalf("VM %d changed but not journaled (dirty=%v)", id, c.DirtyVMs())
			}
		}
		if nOps > 0 && len(changedPM)+len(changedVM) > 0 && c.j.gen == tok {
			t.Fatal("state changed but generation did not advance")
		}
	}
}

// TestJournalGenerationAndInvalidation pins the cache-validity contract:
// generation advances on every mutation, bulk operations mark full, and a
// second clear invalidates the first consumer's token.
func TestJournalGenerationAndInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := buildJournalCluster(rng)

	// Never-cleared clusters are all-dirty.
	if !c.DirtyFull() {
		t.Fatal("fresh cluster must report DirtyFull")
	}

	tok := c.ClearDirty()
	g := c.j.gen
	if err := c.SetHealth(0, Draining); err != nil {
		t.Fatal(err)
	}
	if c.j.gen == g {
		t.Fatal("SetHealth did not bump generation")
	}

	// A second consumer clearing invalidates the first's token.
	tok2 := c.ClearDirty()
	if tok2 == tok || c.LastClear() != tok2 {
		t.Fatalf("second clear token %d must supersede %d", tok2, tok)
	}

	// AddVM resizes the row space: full dirty.
	c.AddVM(VMType{CPU: 1, Mem: 2, Numas: 1})
	if !c.DirtyFull() {
		t.Fatal("AddVM must mark the journal full")
	}
	c.ClearDirty()

	// CopyFrom is a bulk restore: full dirty.
	other := buildJournalCluster(rng)
	c.CopyFrom(other)
	if !c.DirtyFull() {
		t.Fatal("CopyFrom must mark the journal full")
	}

	// Clone starts with a fresh (never-cleared, all-dirty) journal and does
	// not disturb the source's.
	src := buildJournalCluster(rng)
	src.ClearDirty()
	cp := src.Clone()
	if !cp.DirtyFull() {
		t.Fatal("clone must start all-dirty")
	}
	if src.DirtyFull() {
		t.Fatal("cloning must not dirty the source")
	}
}
