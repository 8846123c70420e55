package policy

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// batchTestEnv builds a small random environment; nVM varies so batches are
// ragged (different row counts per environment).
func batchTestEnv(t *testing.T, seed int64, nPM, nVM, mnl int) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(nPM, cluster.PMSmall)
	for i := 0; i < nVM; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 6 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(mnl))
}

// forwardRowIndependence asserts every environment's segment of a ragged wave
// — embeddings, attention, every head — has the Float64bits it has in a wave
// of one, for every extractor mode.
func forwardRowIndependence(t *testing.T, int8 bool) {
	for _, ex := range []ExtractorMode{SparseAttention, VanillaAttention, NoAttention} {
		cfg := Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Extractor: ex, Seed: 11}
		if ex == NoAttention {
			cfg.Heads = 1
		}
		m := New(cfg)
		if int8 && m.Quantize() == 0 {
			t.Fatal("Quantize converted no layers")
		}
		for _, B := range []int{3, 8} {
			envs := raggedEnvs(t, int64(100*B), B)
			ic := NewInferCtx()
			inWave := waveSegs(m, ic, waveForward(m, ic, envs), envs)
			for b := range envs {
				alone := waveSegs(m, ic, waveForward(m, ic, envs[b:b+1]), envs[b:b+1])
				compareSegs(t, fmt.Sprintf("%v B=%d env %d", ex, B, b), alone[0], inWave[b], 0)
			}
		}
	}
}

// TestForwardBatchBitIdentical pins row independence at the float forward.
func TestForwardBatchBitIdentical(t *testing.T) { forwardRowIndependence(t, false) }

// TestInferBatchMatchesSequential pins row independence at the sampler: whole
// lock-step episodes across all three action modes, batch sizes 1/3/8,
// sampled (non-greedy) actions with thresholding, environments finishing at
// different times (ragged last waves). Every row's decision in the wave must
// equal what it gets alone (Infer, a wave of one) with the same rng stream.
func TestInferBatchMatchesSequential(t *testing.T) {
	for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Action: mode, Seed: 5})
		for _, B := range []int{1, 3, 8} {
			envs := make([]*sim.Env, B)
			for b := range envs {
				// Different MNLs force ragged last waves.
				envs[b] = batchTestEnv(t, int64(7*B+b), 3+b%2, 8+2*b, 2+b%4)
			}
			opts := make([]SampleOpts, B)
			rngs := make([]*rand.Rand, B)
			for b := range opts {
				if mode == TwoStage && b%2 == 1 {
					opts[b] = SampleOpts{VMQuantile: 0.5, PMQuantile: 0.5}
				}
				if b == 0 {
					opts[b].Greedy = true
				}
				rngs[b] = rand.New(rand.NewSource(int64(40 + b)))
			}
			bc := NewBatchInferCtx()
			ic := NewInferCtx()
			for wave := 0; ; wave++ {
				if wave > 200 {
					t.Fatal("batch rollout did not terminate")
				}
				var active []int
				for b, env := range envs {
					if !env.Done() {
						active = append(active, b)
					}
				}
				if len(active) == 0 {
					break
				}
				waveEnvs := make([]*sim.Env, len(active))
				waveOpts := make([]SampleOpts, len(active))
				waveRngs := make([]*rand.Rand, len(active))
				seqActs := make([]BatchAction, len(active))
				for k, b := range active {
					waveEnvs[k] = envs[b]
					waveOpts[k] = opts[b]
					// Sequential reference first, on a fresh rng with a
					// wave+env-derived seed; the batch then replays the same
					// stream.
					seed := int64(1000*wave + b)
					vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(seed)), opts[b])
					seqActs[k] = BatchAction{VM: vm, PM: pm, Err: err}
					waveRngs[k] = rand.New(rand.NewSource(seed))
				}
				acts := m.InferBatch(bc, waveEnvs, waveRngs, waveOpts, nil)
				for k, b := range active {
					if acts[k] != seqActs[k] {
						t.Fatalf("mode %v B=%d wave %d env %d: batch %+v != sequential %+v",
							mode, B, wave, b, acts[k], seqActs[k])
					}
					if acts[k].Err != nil {
						// Mark the episode over the way Rollout does.
						continue
					}
					env := envs[b]
					if mode == Penalty {
						if _, _, err := env.PenaltyStep(acts[k].VM, acts[k].PM, -5); err != nil {
							t.Fatal(err)
						}
					} else if _, _, err := env.Step(acts[k].VM, acts[k].PM); err != nil {
						t.Fatal(err)
					}
				}
				// Environments whose stage 1 had no candidate stay done-less
				// but would never progress; finish them.
				for k, b := range active {
					if acts[k].Err != nil {
						envs[b] = batchTestEnv(t, int64(999), 3, 0, 0) // done env placeholder
					}
				}
			}
		}
	}
}

// TestActBatchMatchesAct pins the training path: a row's decision (action,
// log-prob, value) in a multi-row WaveAct wave equals Act — a wave of one —
// with the same rng stream.
func TestActBatchMatchesAct(t *testing.T) {
	for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Heads: 1, Action: mode, Seed: 9})
		B := 4
		envs := make([]*sim.Env, B)
		for b := range envs {
			envs[b] = batchTestEnv(t, int64(50+b), 4, 10+b, 6)
		}
		bc := NewBatchInferCtx()
		rngs := make([]*rand.Rand, B)
		seqDecs := make([]*Decision, B)
		for b := range envs {
			seed := int64(300 + b)
			dec, err := m.Act(envs[b], rand.New(rand.NewSource(seed)), SampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			seqDecs[b] = dec
			rngs[b] = rand.New(rand.NewSource(seed))
		}
		decs := m.ActBatch(bc, envs, rngs, []SampleOpts{{}})
		for b := range envs {
			want, got := seqDecs[b], decs[b]
			if got == nil {
				t.Fatalf("mode %v env %d: nil batch decision", mode, b)
			}
			if want.State.VM != got.State.VM || want.State.PM != got.State.PM {
				t.Fatalf("mode %v env %d: action (%d,%d) != (%d,%d)", mode, b,
					got.State.VM, got.State.PM, want.State.VM, want.State.PM)
			}
			if want.LogProb != got.LogProb || want.Value != got.Value {
				t.Fatalf("mode %v env %d: logp/value %v/%v != %v/%v", mode, b,
					got.LogProb, got.Value, want.LogProb, want.Value)
			}
			// The stored snapshot must be detached from the batch buffers.
			if len(got.State.Feat.FlatVM()) > 0 && len(bc.fb.FlatVM()) > 0 &&
				&got.State.Feat.FlatVM()[0] == &bc.fb.Envs[b].FlatVM()[0] {
				t.Fatalf("mode %v env %d: state snapshot aliases batch buffer", mode, b)
			}
		}
	}
}

// TestRolloutBatchMatchesAgentSolve pins the rollout loop's row independence
// and seed derivation: Agent.SolveBatch of five equals five Agent.Solve calls
// (batches of one) with the derived seeds.
func TestRolloutBatchMatchesAgentSolve(t *testing.T) {
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 13})
	B := 5
	batched := make([]*sim.Env, B)
	seq := make([]*sim.Env, B)
	for b := range batched {
		batched[b] = batchTestEnv(t, int64(70+b), 4, 9+2*b, 3+b)
		seq[b] = batchTestEnv(t, int64(70+b), 4, 9+2*b, 3+b)
	}
	ag := Agent{Model: m, Seed: 21}
	for b := range seq {
		sag := Agent{Model: m, Seed: 21 + 1_000_003*int64(b)}
		if err := sag.Solve(context.Background(), seq[b]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ag.SolveBatch(context.Background(), batched); err != nil {
		t.Fatal(err)
	}
	for b := range seq {
		sp, bp := seq[b].Plan(), batched[b].Plan()
		if len(sp) != len(bp) {
			t.Fatalf("env %d: plan length %d != %d", b, len(bp), len(sp))
		}
		for i := range sp {
			if sp[i] != bp[i] {
				t.Fatalf("env %d migration %d: %+v != %+v", b, i, bp[i], sp[i])
			}
		}
		if seq[b].Value() != batched[b].Value() {
			t.Fatalf("env %d: value %v != %v", b, batched[b].Value(), seq[b].Value())
		}
	}
}

// TestInferBatchParallelKernelsBitIdentical reruns the batch-vs-sequential
// comparison with GOMAXPROCS forced to 4, so the stacked GEMMs and the
// segmented/grouped attention take their goroutine fan-out paths: actions
// must still match the sequential reference exactly.
func TestInferBatchParallelKernelsBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	m := New(Config{DModel: 32, Hidden: 64, Blocks: 2, Heads: 2, Seed: 3})
	B := 8
	envs := make([]*sim.Env, B)
	for b := range envs {
		envs[b] = batchTestEnv(t, int64(60+b), 4, 20+b, 4)
	}
	bc := NewBatchInferCtx()
	ic := NewInferCtx()
	for wave := 0; wave < 3; wave++ {
		rngs := make([]*rand.Rand, B)
		want := make([]BatchAction, B)
		for b := range envs {
			seed := int64(10*wave + b)
			vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(seed)), SampleOpts{})
			if err != nil {
				t.Fatal(err)
			}
			want[b] = BatchAction{VM: vm, PM: pm}
			rngs[b] = rand.New(rand.NewSource(seed))
		}
		acts := m.InferBatch(bc, envs, rngs, []SampleOpts{{}}, nil)
		for b := range envs {
			if acts[b] != want[b] {
				t.Fatalf("wave %d env %d: batch %+v != seq %+v", wave, b, acts[b], want[b])
			}
		}
		for b, env := range envs {
			if env.Done() {
				continue
			}
			if _, _, err := env.Step(acts[b].VM, acts[b].PM); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun without its GOMAXPROCS=1 pin, so
// kernels above the parallel threshold take their fan-out at the ambient
// GOMAXPROCS: the integer mean of heap allocations per call of f over runs
// calls, after as many warm-up calls (which also stock the runtime's free
// goroutine lists).
func allocsAtProcs(runs int, f func()) uint64 {
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestInferBatchSteadyStateAllocs pins a warm batched step's (extract →
// stacked forward → mask → sample for every environment) heap allocations
// at the ambient GOMAXPROCS; CI runs it at -cpu 1,2,4.
//   - Four small environments stay below every kernel's fan-out threshold
//     and allocate nothing at any setting.
//   - Eight tiny-profile environments (480 VM rows) allocate nothing at
//     GOMAXPROCS=1. Above it the dense VM self-attention fans its query rows
//     out over GOMAXPROCS goroutines. That one fan-out allocates the
//     caller's closure, the WaitGroup, the captured kernel, and one closure
//     per goroutine.
func TestInferBatchSteadyStateAllocs(t *testing.T) {
	small := func() (*Model, []*sim.Env) {
		envs := make([]*sim.Env, 4)
		for b := range envs {
			envs[b] = batchTestEnv(t, int64(20+b), 4, 10+b, 1<<30)
		}
		return New(Config{DModel: 16, Hidden: 24, Blocks: 2, Seed: 9}), envs
	}
	wave8 := func() (*Model, []*sim.Env) {
		c := trace.MustProfile("tiny").GenerateFragmented(rand.New(rand.NewSource(7)), 0.12, 12)
		envs := make([]*sim.Env, 8)
		for b := range envs {
			envs[b] = sim.New(c, sim.Config{MNL: 1 << 30, Obj: sim.FR16()})
		}
		return New(Config{DModel: 16, Hidden: 32, Blocks: 1, Extractor: SparseAttention, Action: TwoStage, Seed: 7}), envs
	}
	procs := runtime.GOMAXPROCS(0)
	fanOut := uint64(0)
	if procs > 1 {
		fanOut = uint64(procs) + 3
	}
	for _, tc := range []struct {
		name  string
		build func() (*Model, []*sim.Env)
		want  uint64
	}{
		{"small", small, 0},
		{"wave8", wave8, fanOut},
	} {
		m, envs := tc.build()
		rngs := make([]*rand.Rand, len(envs))
		opts := make([]SampleOpts, len(envs))
		for b := range envs {
			rngs[b] = rand.New(rand.NewSource(int64(b)))
			opts[b] = SampleOpts{Greedy: true}
		}
		bc := NewBatchInferCtx()
		var acts []BatchAction
		run := func() {
			acts = m.InferBatch(bc, envs, rngs, opts, acts)
		}
		if allocs := allocsAtProcs(20, run); allocs > tc.want {
			t.Errorf("%s at GOMAXPROCS=%d: steady-state InferBatch allocates %d times per wave, want <= %d",
				tc.name, procs, allocs, tc.want)
		}
	}
}

// TestValuesBatchMatchesSequential checks the MCTS expansion primitive: a
// state's critic value in a wave of five equals its value alone.
func TestValuesBatchMatchesSequential(t *testing.T) {
	m := New(Config{DModel: 16, Hidden: 24, Blocks: 1, Seed: 17})
	var cs []*cluster.Cluster
	for b := 0; b < 5; b++ {
		cs = append(cs, batchTestEnv(t, int64(b), 3+b%2, 7+b, 4).Cluster())
	}
	ic := NewInferCtx()
	got := m.ValuesBatch(ic, cs, nil)
	for b := range cs {
		if want := m.ValuesBatch(ic, cs[b:b+1], nil)[0]; want != got[b] {
			t.Fatalf("state %d: value %v != %v", b, got[b], want)
		}
	}
}
