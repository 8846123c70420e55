package policy

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// incrTestEnv builds a cluster large enough that one migration dirties a
// small fraction of rows and rarely moves the normalizer bounds, so the
// fast path actually runs. MNL is generous so long mutation streams fit in
// one episode.
func incrTestEnv(t *testing.T, seed int64) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(16, cluster.PMSmall)
	for i := 0; i < 48; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 8 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(64))
}

// compareForwards runs the step-cache front end and the full-recompute front
// end on the same env and asserts every downstream consumer (embeddings, both
// actor heads, the joint logits, the critic) sees identical Float64bits —
// the incremental path must reproduce the full forward exactly, not
// approximately.
func compareForwards(t *testing.T, m *Model, icI, icF *InferCtx, env *sim.Env) {
	t.Helper()
	envs := []*sim.Env{env}
	icI.arena.Reset()
	incr := waveSegs(m, icI, m.forwardIncr(icI, env), envs)[0]
	full := waveSegs(m, icF, waveForward(m, icF, envs), envs)[0]
	compareSegs(t, "incremental vs full", full, incr, 0)
}

// stepEnv advances the env one uniformly random legal migration. Random
// streams keep the mutation sequence independent of model numerics (so the
// float and int8 variants see the same stream) and avoid greedy-policy
// oscillations that pin the normalizer bounds to the touched PM.
func stepEnv(t *testing.T, env *sim.Env, rng *rand.Rand) {
	t.Helper()
	vmMask := env.VMMask()
	for try := 0; try < 64; try++ {
		vm := rng.Intn(len(vmMask))
		if !vmMask[vm] {
			continue
		}
		pmMask := env.PMMask(vm)
		pm := rng.Intn(len(pmMask))
		if !pmMask[pm] {
			continue
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no legal migration found")
}

// TestIncrForwardBitParity drives an env through greedy rollout steps — plus
// a Reset mid-stream — and asserts after every mutation that the incremental
// forward is bit-identical to a full recompute, for every extractor mode in
// float and int8.
func TestIncrForwardBitParity(t *testing.T) {
	exNames := map[ExtractorMode]string{NoAttention: "none", SparseAttention: "sparse", VanillaAttention: "vanilla"}
	for _, ex := range []ExtractorMode{NoAttention, SparseAttention, VanillaAttention} {
		for _, quant := range []bool{false, true} {
			name := exNames[ex] + map[bool]string{false: "/float", true: "/int8"}[quant]
			t.Run(name, func(t *testing.T) {
				env := incrTestEnv(t, 17)
				cfg := Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Extractor: ex, Seed: 11}
				m := New(cfg)
				if quant {
					m.Quantize()
				}
				icI, icF := NewInferCtx(), NewInferCtx()
				icI.SetIncremental(true)
				rng := rand.New(rand.NewSource(23))
				for step := 0; step < 24 && !env.Done(); step++ {
					compareForwards(t, m, icI, icF, env)
					if step == 11 {
						env.Reset() // journal goes full-dirty: must fall back, stay exact
						continue
					}
					stepEnv(t, env, rng)
				}
				st := icI.IncrStats()
				if st.Hits == 0 {
					t.Fatalf("incremental fast path never taken: %+v", st)
				}
				if st.Misses == 0 || st.Fallbacks == 0 {
					t.Fatalf("expected at least one miss (cold start) and one fallback (Reset): %+v", st)
				}
			})
		}
	}
}

// TestIncrInvalidation exercises the cache keys: weight updates, ctx reuse
// on a different env, and forked envs must all re-prime rather than serve
// stale activations.
func TestIncrInvalidation(t *testing.T) {
	env := inferTestEnv(t, 29)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Extractor: NoAttention, Seed: 7})
	icI, icF := NewInferCtx(), NewInferCtx()
	icI.SetIncremental(true)

	compareForwards(t, m, icI, icF, env) // cold miss
	// Weight change (quantize bumps the params version).
	m.Quantize()
	compareForwards(t, m, icI, icF, env)
	if st := icI.IncrStats(); st.Misses != 2 {
		t.Fatalf("version bump must miss: %+v", st)
	}
	// Same ctx pointed at a second env over a copy of the cluster (batch-slot
	// reuse): different cluster pointer, must miss even though the state is
	// identical.
	fork := sim.New(env.Cluster(), sim.Config{MNL: env.MNL(), Obj: env.Objective()})
	compareForwards(t, m, icI, icF, fork)
	if st := icI.IncrStats(); st.Misses != 3 {
		t.Fatalf("env switch must miss: %+v", st)
	}
	// Back to the original env: pointer changed again.
	compareForwards(t, m, icI, icF, env)
	if st := icI.IncrStats(); st.Misses != 4 {
		t.Fatalf("env switch back must miss: %+v", st)
	}
	// SetIncremental(false) then (true) starts cold.
	icI.SetIncremental(false)
	icI.SetIncremental(true)
	compareForwards(t, m, icI, icF, env)
	if st := icI.IncrStats(); st.Misses != 5 {
		t.Fatalf("re-enable must miss: %+v", st)
	}
}

// TestIncrActionParity checks end-to-end greedy action selection agrees
// between an incremental and a plain context across a full episode, for all
// three action heads.
func TestIncrActionParity(t *testing.T) {
	actNames := map[ActionMode]string{TwoStage: "two-stage", FullMask: "full-mask", Penalty: "penalty"}
	for _, action := range []ActionMode{TwoStage, FullMask, Penalty} {
		t.Run(actNames[action], func(t *testing.T) {
			env := incrTestEnv(t, 41)
			m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2,
				Extractor: SparseAttention, Action: action, Seed: 5})
			icI, icF := NewInferCtx(), NewInferCtx()
			icI.SetIncremental(true)
			for step := 0; step < 16 && !env.Done(); step++ {
				vmI, pmI, errI := m.Infer(icI, env, rand.New(rand.NewSource(int64(step))), SampleOpts{Greedy: true})
				vmF, pmF, errF := m.Infer(icF, env, rand.New(rand.NewSource(int64(step))), SampleOpts{Greedy: true})
				if errI != nil || errF != nil {
					t.Fatalf("step %d: errs %v %v", step, errI, errF)
				}
				if vmI != vmF || pmI != pmF {
					t.Fatalf("step %d: incremental (%d,%d) != full (%d,%d)", step, vmI, pmI, vmF, pmF)
				}
				if _, _, err := env.Step(vmF, pmF); err != nil {
					t.Fatal(err)
				}
			}
			if st := icI.IncrStats(); st.Hits == 0 {
				t.Fatalf("fast path never taken: %+v", st)
			}
		})
	}
}

// TestIncrSteadyStateAllocs: once warm, an incremental step (journal-driven
// update + row patches + sampling) must not allocate.
func TestIncrSteadyStateAllocs(t *testing.T) {
	env := incrTestEnv(t, 53)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Extractor: NoAttention, Seed: 9})
	ic := NewInferCtx()
	ic.SetIncremental(true)
	rng := rand.New(rand.NewSource(2))
	step := func() {
		vm, pm, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
		if env.Done() {
			env.Reset()
		}
	}
	for i := 0; i < 6; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(40, step); avg > 0 {
		t.Fatalf("incremental step allocates: %v allocs/op", avg)
	}
}
