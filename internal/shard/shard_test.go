package shard

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

// affinityCluster builds a fragmented mapping with a synthetic anti-affinity
// overlay, the input class the partitioner is designed for.
func affinityCluster(t *testing.T, seed int64, level int) *cluster.Cluster {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := trace.MustProfile("workload-mid-small").GenerateFragmented(rng, 0.10, 12)
	trace.AttachAffinity(c, level, rng)
	if err := c.Validate(); err != nil {
		t.Fatalf("seed %d: generated cluster invalid: %v", seed, err)
	}
	return c
}

func checkPartition(t *testing.T, c *cluster.Cluster, parts [][]int) {
	t.Helper()
	seen := make(map[int]bool)
	for _, p := range parts {
		for _, pm := range p {
			if pm < 0 || pm >= len(c.PMs) {
				t.Fatalf("partition references pm %d of %d", pm, len(c.PMs))
			}
			if seen[pm] {
				t.Fatalf("pm %d appears in two parts", pm)
			}
			seen[pm] = true
		}
	}
	if len(seen) != len(c.PMs) {
		t.Fatalf("partition covers %d of %d PMs", len(seen), len(c.PMs))
	}
}

func TestPartitionBalancedWithoutAffinity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := trace.MustProfile("workload-mid-small").GenerateMapping(rng)
	for _, k := range []int{1, 2, 4, 7, len(c.PMs), len(c.PMs) + 5} {
		parts, oversized := Partition(c, k)
		checkPartition(t, c, parts)
		if oversized != 0 {
			t.Errorf("k=%d: %d oversized components without affinity", k, oversized)
		}
		want := k
		if want > len(c.PMs) {
			want = len(c.PMs)
		}
		if len(parts) != want {
			t.Errorf("k=%d: got %d parts, want %d", k, len(parts), want)
		}
		min, max := len(c.PMs), 0
		for _, p := range parts {
			if len(p) < min {
				min = len(p)
			}
			if len(p) > max {
				max = len(p)
			}
		}
		if max-min > 1 {
			t.Errorf("k=%d: unbalanced parts: min %d, max %d", k, min, max)
		}
	}
}

func TestPartitionKeepsServiceGroupsWhole(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c := affinityCluster(t, seed, 4)
		parts, oversized := Partition(c, 4)
		checkPartition(t, c, parts)
		if oversized > 0 {
			// The fallback fired: group-wholeness is not promised then.
			continue
		}
		partOf := make(map[int]int)
		for i, p := range parts {
			for _, pm := range p {
				partOf[pm] = i
			}
		}
		svcPart := map[int]int{}
		for i := range c.VMs {
			v := &c.VMs[i]
			if v.Service < 0 || !v.Placed() {
				continue
			}
			if prev, ok := svcPart[v.Service]; ok && prev != partOf[v.PM] {
				t.Fatalf("seed %d: service %d spans parts %d and %d", seed, v.Service, prev, partOf[v.PM])
			}
			svcPart[v.Service] = partOf[v.PM]
		}
	}
}

func TestPartitionOversizedGroupFallback(t *testing.T) {
	// One service per PM pair glues all PMs into a single component that
	// cannot fit in any shard: every PM hosts a VM of service 0.
	c := cluster.New(8, cluster.PMType{Name: "pm", CPUPerNuma: 16, MemPerNuma: 32})
	for pm := 0; pm < 8; pm++ {
		id := c.AddVM(cluster.VMType{CPU: 2, Mem: 4, Numas: 1})
		c.VMs[id].Service = 0
		if err := c.Place(id, pm, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableAntiAffinity()
	parts, oversized := Partition(c, 4)
	checkPartition(t, c, parts)
	if oversized != 1 {
		t.Fatalf("oversized = %d, want 1 (one component of 8 PMs vs capacity 2)", oversized)
	}
	if len(parts) != 4 {
		t.Fatalf("got %d parts, want 4 after the fallback split", len(parts))
	}
}

func TestExtractSubIndependenceAndRemap(t *testing.T) {
	c := affinityCluster(t, 2, 4)
	parts, _ := Partition(c, 3)
	before := c.Clone()
	totalVMs := 0
	for _, part := range parts {
		sub, m := c.ExtractSub(part)
		if err := sub.Validate(); err != nil {
			t.Fatalf("sub-cluster invalid: %v", err)
		}
		if sub.AntiAffinity != c.AntiAffinity {
			t.Fatal("anti-affinity flag not preserved")
		}
		totalVMs += len(sub.VMs)
		for local, global := range m.PMs {
			if sub.PMs[local].Numas != c.PMs[global].Numas {
				t.Fatalf("pm %d->%d: NUMA state differs", local, global)
			}
		}
		for local, global := range m.VMs {
			lv, gv := &sub.VMs[local], &c.VMs[global]
			if lv.CPU != gv.CPU || lv.Mem != gv.Mem || lv.Service != gv.Service {
				t.Fatalf("vm %d->%d: fields differ", local, global)
			}
			if m.PMs[lv.PM] != gv.PM {
				t.Fatalf("vm %d->%d: placed on pm %d, parent says %d", local, global, m.PMs[lv.PM], gv.PM)
			}
		}
		// Mutating the sub-cluster must not leak into the parent.
	mutate:
		for vm := range sub.VMs {
			for pm := range sub.PMs {
				if sub.CanHost(vm, pm) {
					if err := sub.Migrate(vm, pm, cluster.DefaultFragCores); err != nil {
						t.Fatal(err)
					}
					break mutate
				}
			}
		}
	}
	if totalVMs != c.CountPlaced() {
		t.Fatalf("subs carry %d VMs, parent has %d placed", totalVMs, c.CountPlaced())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("parent corrupted by sub mutation: %v", err)
	}
	if c.FragRate(cluster.DefaultFragCores) != before.FragRate(cluster.DefaultFragCores) {
		t.Fatal("parent fragment rate changed after sub mutation")
	}
}

// TestShardedPlanAppliesCleanly is the acceptance property: on random
// anti-affinity clusters, the merged+repaired sharded plan validates with
// zero stale migrations against the full cluster, applies cleanly, never
// violates anti-affinity, and respects the MNL.
func TestShardedPlanAppliesCleanly(t *testing.T) {
	engines := []Engine{
		{Name: "ha", S: heuristics.HA{}},
		{Name: "vbpp", S: heuristics.VBPP{Alpha: 4}},
	}
	const mnl = 12
	for seed := int64(1); seed <= 6; seed++ {
		live := affinityCluster(t, seed, 4)
		for _, shards := range []int{1, 2, 4} {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := Solve(ctx, live, sim.Config{MNL: mnl, Obj: sim.FR16()}, engines, Options{Shards: shards})
			cancel()
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if len(res.Plan) > mnl {
				t.Fatalf("seed %d shards %d: plan has %d migrations, MNL %d", seed, shards, len(res.Plan), mnl)
			}
			if len(res.Shards) < 1 || len(res.Shards) > shards {
				t.Fatalf("seed %d shards %d: %d shard stats", seed, shards, len(res.Shards))
			}
			for _, check := range solver.ValidatePlan(live, res.Plan) {
				if check.Status != solver.MigrationValid {
					t.Fatalf("seed %d shards %d: migration %+v is %s post-repair",
						seed, shards, check.Migration, check.Status)
				}
			}
			applied := live.Clone()
			ok, skipped := sim.ApplyPlan(applied, res.Plan)
			if skipped != 0 || ok != len(res.Plan) {
				t.Fatalf("seed %d shards %d: applied %d, skipped %d of %d",
					seed, shards, ok, skipped, len(res.Plan))
			}
			if err := applied.Validate(); err != nil {
				t.Fatalf("seed %d shards %d: cluster invalid after apply: %v", seed, shards, err)
			}
			got := applied.FragRate(cluster.DefaultFragCores)
			if diff := got - res.FinalFR; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("seed %d shards %d: reported final FR %v, applied FR %v", seed, shards, res.FinalFR, got)
			}
			if res.FinalFR > res.InitialFR+1e-9 {
				t.Fatalf("seed %d shards %d: plan worsened FR %v -> %v",
					seed, shards, res.InitialFR, res.FinalFR)
			}
		}
	}
}

// TestShardSweepInvariants sweeps each work-bound engine set — HA, VBPP and
// their portfolio — over 1 to 16 shards on the static scenario and holds the
// merge-then-repair accounting: every kept migration was either valid as
// planned or repaired (steps == valid + repaired), and the merged plan never
// leaves the cluster more fragmented than it found it.
func TestShardSweepInvariants(t *testing.T) {
	sc := scenario.MustGet("static")
	live, err := sc.Build(rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := sc.ParseObjective()
	if err != nil {
		t.Fatal(err)
	}
	ha := Engine{Name: "ha", S: heuristics.HA{}}
	vbpp := Engine{Name: "vbpp", S: heuristics.VBPP{}}
	for _, engines := range [][]Engine{{ha}, {vbpp}, {ha, vbpp}} {
		for _, k := range []int{1, 2, 4, 8, 16} {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := Solve(ctx, live, sim.Config{MNL: sc.MNL, Obj: obj}, engines, Options{Shards: k})
			cancel()
			if err != nil {
				t.Fatalf("%s x %d shards: %v", Names(engines), k, err)
			}
			if st := res.Stats; len(res.Plan) != st.Valid+st.Repaired {
				t.Errorf("%s x %d shards: steps %d != valid %d + repaired %d",
					Names(engines), k, len(res.Plan), st.Valid, st.Repaired)
			}
			if res.FinalFR > res.InitialFR+1e-9 {
				t.Errorf("%s x %d shards: FR worsened %v -> %v", Names(engines), k, res.InitialFR, res.FinalFR)
			}
		}
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	live := affinityCluster(t, 1, 0)
	ctx := context.Background()
	if _, err := Solve(ctx, live, sim.Config{MNL: 5}, nil, Options{Shards: 2}); err == nil {
		t.Error("no engines accepted")
	}
	engines := []Engine{{Name: "ha", S: heuristics.HA{}}}
	if _, err := Solve(ctx, live, sim.Config{MNL: 0}, engines, Options{Shards: 2}); err == nil {
		t.Error("zero MNL accepted")
	}
	if _, err := Solve(ctx, &cluster.Cluster{}, sim.Config{MNL: 5}, engines, Options{Shards: 2}); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestTruncateKeepsSwapPairsAtomic(t *testing.T) {
	swap := func(vm int) sim.Migration { return sim.Migration{VM: vm, Swap: true} }
	plan := []sim.Migration{{VM: 0}, swap(1), swap(2), {VM: 3}}
	if got := truncate(plan, 2); len(got) != 1 {
		t.Errorf("truncate at 2 kept %d entries, want 1 (cannot split the pair)", len(got))
	}
	if got := truncate(plan, 3); len(got) != 3 {
		t.Errorf("truncate at 3 kept %d entries, want 3", len(got))
	}
	if got := truncate(plan, 10); len(got) != 4 {
		t.Errorf("truncate beyond len kept %d entries, want 4", len(got))
	}
}
