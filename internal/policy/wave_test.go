package policy

import (
	"math/rand"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// TestServeWaveMixedKinds pins the heterogeneous-wave contract the serving
// scheduler depends on: a single wave mixing WaveInfer, WaveAct and WaveValue
// rows gives every row exactly what it gets in a wave of one (Infer / Act /
// a one-state ValuesBatch) — wave composition is invisible to each request.
func TestServeWaveMixedKinds(t *testing.T) {
	for _, mode := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(Config{DModel: 16, Hidden: 24, Blocks: 2, Heads: 2, Action: mode, Seed: 21})
		B := 6
		envs := make([]*sim.Env, B)
		for b := range envs {
			envs[b] = batchTestEnv(t, int64(400+10*b), 3+b%3, 8+2*b, 6)
		}
		bc := NewInferCtx()
		ic := NewInferCtx()
		var res []WaveRes
		// Rotate row kinds across waves so every env exercises every kind
		// and every wave is genuinely mixed.
		for wave := 0; wave < 3; wave++ {
			reqs := make([]WaveReq, B)
			type ref struct {
				vm, pm  int
				err     error
				dec     *Decision
				val     float64
				hasVal  bool
				isInfer bool
				isAct   bool
			}
			refs := make([]ref, B)
			for b := range envs {
				seed := int64(1000*wave + 31*b)
				opts := SampleOpts{}
				if mode == TwoStage && b%2 == 1 {
					opts = SampleOpts{VMQuantile: 0.5, PMQuantile: 0.5}
				}
				switch (b + wave) % 3 {
				case 0: // WaveInfer
					vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(seed)), opts)
					refs[b] = ref{vm: vm, pm: pm, err: err, isInfer: true}
					reqs[b] = WaveReq{Kind: WaveInfer, Env: envs[b], Rng: rand.New(rand.NewSource(seed)), Opts: opts}
				case 1: // WaveAct
					dec, err := m.Act(envs[b], rand.New(rand.NewSource(seed)), opts)
					refs[b] = ref{dec: dec, err: err, isAct: true}
					reqs[b] = WaveReq{Kind: WaveAct, Env: envs[b], Rng: rand.New(rand.NewSource(seed)), Opts: opts}
				default: // WaveValue
					alone := m.ValuesBatch(ic, []*cluster.Cluster{envs[b].Cluster()}, nil)
					refs[b] = ref{val: alone[0], hasVal: true}
					reqs[b] = WaveReq{Kind: WaveValue, State: envs[b].Cluster()}
				}
			}
			res = m.ServeWave(bc, reqs, res)
			for b := range envs {
				r, want := res[b], refs[b]
				switch {
				case want.hasVal:
					if r.Value != want.val {
						t.Fatalf("mode %v wave %d row %d: value %v != %v", mode, wave, b, r.Value, want.val)
					}
				case want.isInfer:
					if r.VM != want.vm || r.PM != want.pm || r.Err != want.err {
						t.Fatalf("mode %v wave %d row %d: infer (%d,%d,%v) != (%d,%d,%v)",
							mode, wave, b, r.VM, r.PM, r.Err, want.vm, want.pm, want.err)
					}
				case want.isAct:
					if want.err != nil {
						if r.Err != want.err || r.Dec != nil {
							t.Fatalf("mode %v wave %d row %d: act err %v dec %v, want err %v", mode, wave, b, r.Err, r.Dec, want.err)
						}
						continue
					}
					if r.Dec == nil {
						t.Fatalf("mode %v wave %d row %d: nil act decision", mode, wave, b)
					}
					if r.Dec.State.VM != want.dec.State.VM || r.Dec.State.PM != want.dec.State.PM {
						t.Fatalf("mode %v wave %d row %d: act (%d,%d) != (%d,%d)", mode, wave, b,
							r.Dec.State.VM, r.Dec.State.PM, want.dec.State.VM, want.dec.State.PM)
					}
					if r.Dec.LogProb != want.dec.LogProb || r.Dec.Value != want.dec.Value {
						t.Fatalf("mode %v wave %d row %d: logp/value %v/%v != %v/%v", mode, wave, b,
							r.Dec.LogProb, r.Dec.Value, want.dec.LogProb, want.dec.Value)
					}
					if r.VM != want.dec.State.VM || r.PM != want.dec.State.PM {
						t.Fatalf("mode %v wave %d row %d: res action mirrors (%d,%d) != dec (%d,%d)", mode, wave, b,
							r.VM, r.PM, want.dec.State.VM, want.dec.State.PM)
					}
				}
			}
			// Advance every env one step so later waves see fresh states; use
			// a fixed legal action from a greedy infer to stay deterministic.
			for b := range envs {
				if envs[b].Done() {
					continue
				}
				vm, pm, err := m.Infer(ic, envs[b], rand.New(rand.NewSource(int64(5*wave+b))), SampleOpts{Greedy: true})
				if err != nil {
					continue
				}
				if mode == Penalty {
					if _, _, err := envs[b].PenaltyStep(vm, pm, -5); err != nil {
						t.Fatal(err)
					}
				} else if _, _, err := envs[b].Step(vm, pm); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
