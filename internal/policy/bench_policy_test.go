package policy

import (
	"math/rand"
	"testing"

	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// BenchmarkActInference measures one full agent decision (feature
// extraction, forward pass, two-stage sampling) — the per-step cost behind
// the paper's 1.1s-per-trajectory inference figure.
func BenchmarkActInference(b *testing.B) {
	c := trace.MustProfile("medium-small").GenerateMapping(rand.New(rand.NewSource(1)))
	env := sim.New(c, sim.DefaultConfig(50))
	m := New(Config{DModel: 32, Hidden: 64, Blocks: 2, Extractor: SparseAttention, Action: TwoStage, Seed: 1})
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Act(env, rng, SampleOpts{Greedy: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateTrainingStep measures one PPO re-evaluation with
// backward pass, the training-time unit cost.
func BenchmarkEvaluateTrainingStep(b *testing.B) {
	c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(1)))
	env := sim.New(c, sim.DefaultConfig(10))
	m := New(Config{DModel: 16, Hidden: 32, Blocks: 1, Extractor: SparseAttention, Action: TwoStage, Seed: 1})
	dec, err := m.Act(env, rand.New(rand.NewSource(2)), SampleOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Params.ZeroGrad()
		ev := m.Evaluate(nil, dec.State)
		ev.LogProb.Backward()
	}
}
