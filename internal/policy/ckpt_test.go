package policy

import (
	"bytes"
	"math/rand"
	"testing"

	"vmr2l/internal/sim"
)

// greedyTrace runs an 8-step greedy episode and returns the action sequence,
// the discrete fingerprint two models must share to serve interchangeably.
func greedyTrace(t *testing.T, m *Model, envSeed int64) []int {
	t.Helper()
	env := batchTestEnv(t, envSeed, 4, 16, 8)
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(1))
	var trace []int
	for step := 0; step < 8; step++ {
		vm, pm, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		trace = append(trace, vm*10000+pm)
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
	}
	return trace
}

// forwardFingerprint runs the wave forward and every head on a fixed env for
// bit-level comparison.
func forwardFingerprint(t *testing.T, m *Model, envSeed int64) segOut {
	t.Helper()
	envs := []*sim.Env{batchTestEnv(t, envSeed, 4, 16, 8)}
	ic := NewInferCtx()
	return waveSegs(m, ic, waveForward(m, ic, envs), envs)[0]
}

// TestCKPTQuantizedExportServesIdentically pins the int8 checkpoint
// contract: a quantized model exported to the portable format and loaded
// into a freshly initialized model serves bit-identically — same forward
// pass bits, same greedy actions.
func TestCKPTQuantizedExportServesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	m1 := New(cfg)
	if m1.Quantize() == 0 {
		t.Fatal("Quantize converted no layers")
	}
	var buf bytes.Buffer
	if err := m1.Params.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 77 // different init: everything must come from the checkpoint
	m2 := New(cfg2)
	if err := m2.Params.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !m2.Quantized() {
		t.Fatal("loaded model is not quantized")
	}
	compareSegs(t, "quantized export", forwardFingerprint(t, m1, 500), forwardFingerprint(t, m2, 500), 0)
	tr1 := greedyTrace(t, m1, 501)
	tr2 := greedyTrace(t, m2, 501)
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("greedy action %d differs after quantized export: %d vs %d", i, tr1[i], tr2[i])
		}
	}
}

// TestCKPTFloatReexportSolvesIdentically pins what `vmr2l-eval -export` does
// to a float model: load, re-export, load again reproduces the original model
// bit for bit.
func TestCKPTFloatReexportSolvesIdentically(t *testing.T) {
	cfg := DefaultConfig()
	m1 := New(cfg)
	m3 := m1
	for hop := int64(1); hop <= 2; hop++ {
		var buf bytes.Buffer
		if err := m3.Params.SaveCKPT(&buf, "f64"); err != nil {
			t.Fatal(err)
		}
		cfgN := cfg
		cfgN.Seed = cfg.Seed + 77 + hop // different init: everything must come from the checkpoint
		m3 = New(cfgN)
		if err := m3.Params.Load(&buf); err != nil {
			t.Fatal(err)
		}
	}
	compareSegs(t, "re-export", forwardFingerprint(t, m1, 600), forwardFingerprint(t, m3, 600), 0)
	tr1 := greedyTrace(t, m1, 601)
	tr3 := greedyTrace(t, m3, 601)
	for i := range tr1 {
		if tr1[i] != tr3[i] {
			t.Fatalf("greedy action %d differs after re-export: %d vs %d", i, tr1[i], tr3[i])
		}
	}
}
