package sched

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/trace"
)

// TestDynamicsAdvanceKeepsClusterValid is the dynamics safety property: any
// Advance sequence leaves the cluster internally consistent (usage matches
// hosted VMs, no capacity exceeded, aggregates in sync) and never violates
// anti-affinity.
func TestDynamicsAdvanceKeepsClusterValid(t *testing.T) {
	mix := []cluster.VMType{
		cluster.StandardTypes[0], cluster.StandardTypes[1],
		cluster.StandardTypes[2], cluster.StandardTypes[4], // incl. a double-NUMA flavor
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := trace.MustProfile("tiny").GenerateMapping(rng)
		trace.AttachAffinity(c, 3, rng)
		c.FragRate(cluster.DefaultFragCores) // warm aggregates so Validate cross-checks them
		d := NewDynamics(c, rng, mix, Diurnal(3+float64(seed)))
		if seed%3 == 1 {
			d.SetArriveFrac(0) // drain
		} else if seed%3 == 2 {
			d.SetArriveFrac(0.8)
		}
		// Random advance sequence: mixed chunk sizes, interleaved validation.
		total := 0
		for _, chunk := range []int{1, 7, 0, 23, 60, 5} {
			st := d.Advance(chunk)
			total += chunk
			if st.Minutes != chunk {
				t.Fatalf("seed %d: Advance(%d) reported %d minutes", seed, chunk, st.Minutes)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d after %d minutes: %v", seed, total, err)
			}
		}
		if d.Minute() != total {
			t.Fatalf("seed %d: clock %d != advanced %d", seed, d.Minute(), total)
		}
		st := d.Stats()
		// Events also counts exits resolved against an emptied cluster (the
		// drain seeds hit this), so >= rather than ==.
		if st.Events < st.Arrivals+st.Rejected+st.Exits {
			t.Fatalf("seed %d: events %d < arrivals %d + rejected %d + exits %d",
				seed, st.Events, st.Arrivals, st.Rejected, st.Exits)
		}
	}
}

func TestDynamicsDrainOnlyExits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	before := c.CountPlaced()
	d := NewDynamics(c, rng, []cluster.VMType{cluster.StandardTypes[0]}, Constant(5))
	d.SetArriveFrac(0)
	st := d.Advance(30)
	if st.Arrivals != 0 || st.Rejected != 0 {
		t.Fatalf("drain produced arrivals: %+v", st)
	}
	if st.Exits == 0 {
		t.Fatal("drain produced no exits")
	}
	if got := c.CountPlaced(); got != before-st.Exits {
		t.Fatalf("placed %d, want %d - %d", got, before, st.Exits)
	}
}

func TestDynamicsBurstRate(t *testing.T) {
	r := Burst(1, 20, 10, 5)
	if r(9) != 1 || r(15) != 1 {
		t.Fatal("base rate outside burst window wrong")
	}
	if r(10) != 20 || r(14) != 20 {
		t.Fatal("burst rate inside window wrong")
	}
}

func TestDynamicsExplicitEvents(t *testing.T) {
	c := cluster.New(2, cluster.PMType{CPUPerNuma: 32, MemPerNuma: 64})
	d := NewDynamics(c, rand.New(rand.NewSource(1)), nil, nil)
	pm := d.Arrive(cluster.StandardTypes[1])
	if pm < 0 {
		t.Fatal("arrive failed on empty cluster")
	}
	if !d.Exit(0) {
		t.Fatal("exit of placed vm failed")
	}
	if d.Exit(0) {
		t.Fatal("exit of unplaced vm succeeded")
	}
	if d.Exit(99) {
		t.Fatal("exit of unknown vm succeeded")
	}
	st := d.Stats()
	if st.Arrivals != 1 || st.Exits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestDynamicsReuseSlotsBoundsGrowth pins the long-lived-cluster contract:
// with SetReuseSlots, churn recycles dead VM records instead of growing
// c.VMs forever, and the cluster stays valid throughout.
func TestDynamicsReuseSlotsBoundsGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	mix := []cluster.VMType{cluster.StandardTypes[0], cluster.StandardTypes[2]}
	d := NewDynamics(c, rng, mix, Constant(6))
	d.SetReuseSlots(true)
	before := len(c.VMs)
	st := d.Advance(240)
	if st.Arrivals == 0 || st.Exits == 0 {
		t.Fatalf("no churn: %+v", st)
	}
	// Growth is bounded by the peak net population, not cumulative arrivals.
	if grown := len(c.VMs) - before; grown >= st.Arrivals {
		t.Fatalf("VMs grew by %d over %d arrivals — slots not reused", grown, st.Arrivals)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Without reuse, every arrival appends (the default).
	rng2 := rand.New(rand.NewSource(6))
	c2 := trace.MustProfile("tiny").GenerateMapping(rng2)
	d2 := NewDynamics(c2, rng2, mix, Constant(6))
	before2 := len(c2.VMs)
	st2 := d2.Advance(240)
	if grown := len(c2.VMs) - before2; grown != st2.Arrivals+st2.Rejected {
		t.Fatalf("append mode grew %d, want %d", grown, st2.Arrivals+st2.Rejected)
	}
}

// oldEvent is one arrival or exit of the pre-Dynamics event slice.
type oldEvent struct {
	arrive bool
	vt     cluster.VMType
}

// oldReplay is the pre-Dynamics event-slice implementation, kept verbatim as
// the regression oracle for Dynamics.Arrive and Dynamics.ExitRandom.
func oldReplay(c *cluster.Cluster, events []oldEvent, rng *rand.Rand) (arrivals, exits int) {
	for _, ev := range events {
		if ev.arrive {
			id := c.AddVM(ev.vt)
			if BestFit(c, id) >= 0 {
				arrivals++
			}
		} else {
			var placed []int
			for i := range c.VMs {
				if c.VMs[i].Placed() {
					placed = append(placed, i)
				}
			}
			if len(placed) == 0 {
				continue
			}
			id := placed[rng.Intn(len(placed))]
			if err := c.Remove(id); err == nil {
				exits++
			}
		}
	}
	return arrivals, exits
}

// TestDynamicsMatchesOldEventSliceSemantics pins Arrive and ExitRandom to
// the old event-slice semantics bit for bit: the same seeded arrive/exit
// sequence, exits resolved from the same rng seed, must give an identical
// final cluster and identical counts. Exits outnumber arrivals so the
// sequence also empties the cluster, where an exit must consume no rng.
func TestDynamicsMatchesOldEventSliceSemantics(t *testing.T) {
	mix := []cluster.VMType{cluster.StandardTypes[0], cluster.StandardTypes[2], cluster.StandardTypes[5]}
	for seed := int64(0); seed < 5; seed++ {
		gen := rand.New(rand.NewSource(seed))
		base := trace.MustProfile("tiny").GenerateMapping(gen)
		events := make([]oldEvent, 3*len(base.VMs))
		for i := range events {
			if gen.Float64() < 0.3 {
				events[i] = oldEvent{arrive: true, vt: mix[gen.Intn(len(mix))]}
			}
		}

		oldC, newC := base.Clone(), base.Clone()
		oldArr, oldEx := oldReplay(oldC, events, rand.New(rand.NewSource(seed+100)))
		d := NewDynamics(newC, rand.New(rand.NewSource(seed+100)), nil, nil)
		for _, ev := range events {
			if ev.arrive {
				d.Arrive(ev.vt)
			} else {
				d.ExitRandom()
			}
		}
		st := d.Stats()

		if oldArr != st.Arrivals || oldEx != st.Exits {
			t.Fatalf("seed %d: counts (%d,%d) != old (%d,%d)", seed, st.Arrivals, st.Exits, oldArr, oldEx)
		}
		if len(oldC.VMs) != len(newC.VMs) {
			t.Fatalf("seed %d: vm counts differ: %d vs %d", seed, len(newC.VMs), len(oldC.VMs))
		}
		for i := range oldC.VMs {
			if oldC.VMs[i].PM != newC.VMs[i].PM || oldC.VMs[i].Numa != newC.VMs[i].Numa {
				t.Fatalf("seed %d: vm %d placed at (%d,%d), old semantics (%d,%d)",
					seed, i, newC.VMs[i].PM, newC.VMs[i].Numa, oldC.VMs[i].PM, oldC.VMs[i].Numa)
			}
		}
		if err := newC.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestBestFitMatchesProbeScan pins the O(1) PlaceFragDelta scoring to the
// old Place/probe/Remove scan on random clusters.
func TestBestFitMatchesProbeScan(t *testing.T) {
	probeBestFit := func(c *cluster.Cluster, id int) int {
		bestPM, bestNuma, bestScore := -1, -1, int(^uint(0)>>1)*-1-1
		for pm := range c.PMs {
			numa := c.BestNuma(id, pm, cluster.DefaultFragCores)
			if numa < 0 {
				continue
			}
			if c.AntiAffinity && !canHostUnplaced(c, id, pm) {
				continue
			}
			before := c.PMs[pm].Fragment(cluster.DefaultFragCores)
			if err := c.Place(id, pm, numa); err != nil {
				continue
			}
			after := c.PMs[pm].Fragment(cluster.DefaultFragCores)
			if err := c.Remove(id); err != nil {
				t.Fatal(err)
			}
			if score := before - after; score > bestScore {
				bestPM, bestNuma, bestScore = pm, numa, score
			}
		}
		if bestPM < 0 {
			return -1
		}
		if err := c.Place(id, bestPM, bestNuma); err != nil {
			return -1
		}
		return bestPM
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		base := trace.MustProfile("tiny").GenerateMapping(rng)
		if trial%2 == 1 {
			trace.AttachAffinity(base, 4, rng)
		}
		for _, vt := range cluster.StandardTypes {
			a, b := base.Clone(), base.Clone()
			got := BestFit(a, a.AddVM(vt))
			want := probeBestFit(b, b.AddVM(vt))
			if got != want {
				t.Fatalf("trial %d type %s: BestFit=%d, probe scan=%d", trial, vt.Name, got, want)
			}
		}
	}
}
