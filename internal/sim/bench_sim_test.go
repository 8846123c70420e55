package sim

import (
	"math/rand"
	"testing"

	"vmr2l/internal/trace"
)

func benchEnv(b *testing.B) *Env {
	b.Helper()
	c := trace.MustProfile("medium-small").GenerateMapping(rand.New(rand.NewSource(1)))
	return New(c, DefaultConfig(50))
}

func BenchmarkExtractFeatures(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = extract(e.Cluster())
	}
}

func BenchmarkTopActions(b *testing.B) {
	e := benchEnv(b)
	obj := FR16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TopActions(e.Cluster(), obj, 16)
	}
}

func BenchmarkVMMaskPMMask(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask := e.VMMask()
		for vm, ok := range mask {
			if ok {
				_ = e.PMMask(vm)
				break
			}
		}
	}
}
