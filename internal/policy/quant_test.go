package policy

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestQuantizeSkipsCriticAndTinyHeads pins which layers Quantize converts:
// the actor's GEMMs go int8, the critic and the sub-eligibility heads
// (vm_head, pm_merge output) stay float.
func TestQuantizeSkipsCriticAndTinyHeads(t *testing.T) {
	m := New(DefaultConfig())
	n := m.Quantize()
	if n == 0 {
		t.Fatal("Quantize converted no layers")
	}
	names := m.Params.QuantizedLinears()
	if len(names) != n {
		t.Fatalf("QuantizedLinears reports %d, Quantize returned %d", len(names), n)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "critic") {
			t.Fatalf("critic layer %q was quantized", name)
		}
		if name == "vm_head" || name == "pm_merge.out" {
			t.Fatalf("tiny head %q was quantized (below eligibility floor)", name)
		}
	}
	if !m.Quantized() {
		t.Fatal("Quantized() false after Quantize")
	}
	for _, want := range []string{"pm_embed.in", "block0.pm_ff.in", "block1.tree.wo"} {
		if !slices.Contains(names, want) {
			t.Fatalf("expected %q to be quantized", want)
		}
	}
}

// TestQuantizedBatchBitIdentical re-pins row independence on the int8 path:
// per-row dynamic quantization makes every output row independent of how
// many other rows share the stacked GEMM, so a segment's bits in a ragged
// quantized wave are its bits alone.
func TestQuantizedBatchBitIdentical(t *testing.T) { forwardRowIndependence(t, true) }

// TestQuantizedInferSolves runs a greedy episode end to end on a quantized
// model: actions stay legal and the environment steps without error.
func TestQuantizedInferSolves(t *testing.T) {
	m := New(DefaultConfig())
	m.Quantize()
	env := batchTestEnv(t, 42, 4, 16, 8)
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 8; step++ {
		vm, pm, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatalf("step %d apply: %v", step, err)
		}
	}
}

// TestQuantizedInferAllocFree pins the steady-state allocation contract on
// the quantized path, matching the float path's zero-alloc guarantee.
func TestQuantizedInferAllocFree(t *testing.T) {
	m := New(DefaultConfig())
	m.Quantize()
	env := batchTestEnv(t, 43, 4, 16, 8)
	ic := NewInferCtx()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3; i++ {
		if _, _, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := m.Infer(ic, env, rng, SampleOpts{Greedy: true}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("quantized Infer allocates %.1f/op at steady state, want 0", allocs)
	}
}
