package policy

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

func inferTestEnv(t *testing.T, seed int64) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(4, cluster.PMSmall)
	for i := 0; i < 14; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 4 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(8))
}

// segOut is everything downstream consumers read from one segment of a
// forward: embeddings, stage-3 attention, both actor heads (VM 0 selected for
// stage 2), the joint logits and the critic value, as detached copies.
type segOut struct {
	pmE, vmE, cross, vmLogits, pmLogits, joint *tensor.Tensor
	value                                      float64
}

// specSeg evaluates the autograd forward — the specification — on env.
func specSeg(m *Model, env *sim.Env) segOut {
	var f sim.Features
	sim.ExtractInto(&f, env.Cluster())
	o := m.forward(nil, &f)
	return segOut{o.pmE, o.vmE, o.crossProbs, m.vmLogits(o, env.VMMask()),
		m.pmLogits(o, 0, env.PMMask(0)), m.jointLogits(o, nil), m.value(o).Scalar()}
}

// waveForward runs the full-recompute front end and the wave forward for envs
// on ic, stopping short of the heads.
func waveForward(m *Model, ic *InferCtx, envs []*sim.Env) *waveOut {
	reqs := make([]WaveReq, len(envs))
	for b, env := range envs {
		reqs[b] = WaveReq{Env: env}
	}
	ic.arena.Reset()
	ic.extractWave(reqs)
	return m.forwardWave(ic)
}

// clone copies an arena tensor onto the heap, out of the arena's reach.
func clone(t *tensor.Tensor) *tensor.Tensor {
	c := tensor.New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// waveSegs reads every head of a wave output on ic (from either front end),
// one segOut per environment.
func waveSegs(m *Model, ic *InferCtx, out *waveOut, envs []*sim.Env) []segOut {
	ar := &ic.arena
	vals := m.valuesCol(ic, out, nil)
	vmCol := m.vmLogitsCol(ic, out)
	pmCol := m.pmLogitsCol(ic, out, make([]int, len(envs))) // VM 0 everywhere
	segs := make([]segOut, len(envs))
	for b, env := range envs {
		pmLo, pmHi, vmLo, vmHi := ic.pmOff[b], ic.pmOff[b+1], ic.vmOff[b], ic.vmOff[b+1]
		s := segOut{
			pmE:      clone(ar.Rows(out.pmAll, pmLo, pmHi)),
			vmE:      clone(ar.Rows(out.vmAll, vmLo, vmHi)),
			vmLogits: clone(logitsRow(ar, vmCol, vmLo, vmHi, env.VMMask())),
			pmLogits: clone(logitsRow(ar, pmCol, pmLo, pmHi, env.PMMask(0))),
			joint:    clone(m.jointLogitsRow(ic, out, b, nil)),
			value:    vals[b],
		}
		if out.crossVM != nil {
			// The full stage-3 matrix, one on-demand row at a time.
			cross := m.blocks[len(m.blocks)-1].cross
			s.cross = tensor.New(vmHi-vmLo, pmHi-pmLo)
			for r := vmLo; r < vmHi; r++ {
				row := cross.ProbRow(ar, out.crossVM, out.crossPM, r, pmLo, pmHi)
				copy(s.cross.Data[(r-vmLo)*row.Cols:], row.Data)
			}
		}
		segs[b] = s
	}
	return segs
}

// compareSegs asserts got matches want within tol; tol 0 demands identical
// Float64bits.
func compareSegs(t *testing.T, name string, want, got segOut, tol float64) {
	t.Helper()
	differ := func(a, b float64) bool {
		if tol == 0 {
			return math.Float64bits(a) != math.Float64bits(b)
		}
		return math.Abs(a-b) > tol
	}
	check := func(part string, a, b *tensor.Tensor) {
		t.Helper()
		if a == nil || b == nil {
			if a != b {
				t.Fatalf("%s %s: nil mismatch", name, part)
			}
			return
		}
		if a.Rows != b.Rows || a.Cols != b.Cols {
			t.Fatalf("%s %s: shape %dx%d vs %dx%d", name, part, a.Rows, a.Cols, b.Rows, b.Cols)
		}
		for i := range a.Data {
			if differ(a.Data[i], b.Data[i]) {
				t.Fatalf("%s %s: element %d: %v vs %v", name, part, i, a.Data[i], b.Data[i])
			}
		}
	}
	check("pmE", want.pmE, got.pmE)
	check("vmE", want.vmE, got.vmE)
	check("crossProbs", want.cross, got.cross)
	check("vmLogits", want.vmLogits, got.vmLogits)
	check("pmLogits", want.pmLogits, got.pmLogits)
	check("jointLogits", want.joint, got.joint)
	if differ(want.value, got.value) {
		t.Fatalf("%s value: %v vs %v", name, want.value, got.value)
	}
}

// raggedEnvs builds B environments of different shapes.
func raggedEnvs(t *testing.T, seed int64, B int) []*sim.Env {
	envs := make([]*sim.Env, B)
	for b := range envs {
		envs[b] = batchTestEnv(t, seed+int64(b), 3+b%3, 8+3*b, 6)
	}
	return envs
}

// TestInferMatchesGraphForward is the derivation check: the wave forward and
// every head reproduce the autograd forward (same float ops, no graph) for
// every extractor × action mode × wave size, ragged waves included, and the
// sampler's retained decision agrees with the specification's Evaluate.
func TestInferMatchesGraphForward(t *testing.T) {
	for _, ex := range []ExtractorMode{SparseAttention, VanillaAttention, NoAttention} {
		for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
			cfg := Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Extractor: ex, Action: mode, Seed: 11}
			if ex == NoAttention {
				cfg.Heads = 1
			}
			m := New(cfg)
			for _, B := range []int{1, 3, 8} {
				name := fmt.Sprintf("%v/%v/B=%d", ex, mode, B)
				envs := raggedEnvs(t, int64(100*B), B)
				ic := NewInferCtx()
				segs := waveSegs(m, ic, waveForward(m, ic, envs), envs)
				rngs := make([]*rand.Rand, B)
				for b, env := range envs {
					compareSegs(t, name, specSeg(m, env), segs[b], 1e-12)
					rngs[b] = rand.New(rand.NewSource(int64(b)))
				}
				for b, dec := range m.ActBatch(ic, envs, rngs, []SampleOpts{{}}) {
					ev := m.Evaluate(nil, dec.State)
					if math.Abs(ev.LogProb.Scalar()-dec.LogProb) > 1e-9 || math.Abs(ev.Value.Scalar()-dec.Value) > 1e-9 {
						t.Fatalf("%s env %d: decision logp/value %v/%v, Evaluate %v/%v", name, b,
							dec.LogProb, dec.Value, ev.LogProb.Scalar(), ev.Value.Scalar())
					}
				}
			}
		}
	}
}

// TestInferDeterministicAcrossContexts ensures a reused context and a fresh
// one pick identical actions, and that Infer agrees with Act under greedy
// selection (the deployment mode).
func TestInferDeterministicAcrossContexts(t *testing.T) {
	env := inferTestEnv(t, 5)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 3})
	icA, icB := NewInferCtx(), NewInferCtx()
	for step := 0; step < 4; step++ {
		vmA, pmA, errA := m.Infer(icA, env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		vmB, pmB, errB := m.Infer(icB, env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		if errA != nil || errB != nil {
			t.Fatalf("step %d: errs %v %v", step, errA, errB)
		}
		if vmA != vmB || pmA != pmB {
			t.Fatalf("step %d: contexts diverged: (%d,%d) vs (%d,%d)", step, vmA, pmA, vmB, pmB)
		}
		dec, err := m.Act(env, rand.New(rand.NewSource(1)), SampleOpts{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		if dec.State.VM != vmA || dec.State.PM != pmA {
			t.Fatalf("step %d: Act (%d,%d) != Infer (%d,%d)", step, dec.State.VM, dec.State.PM, vmA, pmA)
		}
		if _, _, err := env.Step(vmA, pmA); err != nil {
			t.Fatal(err)
		}
		if env.Done() {
			break
		}
	}
}

// TestInferSteadyStateAllocs verifies the full per-step inference pipeline
// (extract → forward → mask → sample) stops allocating once warm.
func TestInferSteadyStateAllocs(t *testing.T) {
	env := inferTestEnv(t, 7)
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Seed: 9})
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(2))
	run := func() {
		if _, _, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm buffers
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Fatalf("steady-state Infer allocates %v times per step", allocs)
	}
}

// TestActAllocs pins what one training-time decision allocates once the
// pooled context is warm: the Decision and the detached state snapshot PPO
// keeps, whose shape depends on the action mode. The forward allocates
// nothing, as TestInferSteadyStateAllocs pins.
func TestActAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("Act takes a pooled context, and the race detector makes sync.Pool drop items")
	}
	for _, tc := range []struct {
		mode ActionMode
		max  float64
	}{{TwoStage, 9}, {Penalty, 7}, {FullMask, 8}} {
		env := inferTestEnv(t, 7)
		m := New(Config{DModel: 16, Hidden: 32, Blocks: 1, Action: tc.mode, Seed: 7})
		rng := rand.New(rand.NewSource(1))
		run := func() {
			if _, err := m.Act(env, rng, SampleOpts{Greedy: true}); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(100, run); got > tc.max {
			t.Errorf("%v: Act allocates %v times per decision, want <= %v", tc.mode, got, tc.max)
		}
	}
}

// TestSparseForwardColdAllocBytes pins the memory side of the fused attention
// kernel: a cold sparse-attention step at the paper's Medium shape (280 PMs,
// ~2 050 VMs, DModel 32) — fresh context, empty arena, so every buffer the
// forward needs is allocated inside the measured call — stays under 32 MB.
// One 2 050 × 2 050 float64 matrix is 33.6 MB, so a score or probability
// buffer of that shape cannot come back unnoticed (the per-segment buffers of
// the unfused kernel put this at ~190 MB).
func TestSparseForwardColdAllocBytes(t *testing.T) {
	env := batchTestEnv(t, 1, 280, 2050, 2)
	m := New(Config{DModel: 32, Hidden: 64, Blocks: 2, Extractor: SparseAttention, Action: TwoStage, Seed: 1})
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 32 {
		t.Fatalf("cold sparse forward allocated %.1f MB, want < 32 MB", mb)
	} else {
		t.Logf("cold sparse forward allocated %.1f MB", mb)
	}
}
