package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 64, 64, 1)
	y := Randn(rng, 64, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, y)
	}
}

func BenchmarkMatMulBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := Randn(rng, 64, 64, 1).Param()
		y := Randn(rng, 64, 64, 1).Param()
		b.StartTimer()
		Mean(MatMul(x, y)).Backward()
	}
}

func BenchmarkSoftmaxForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := Randn(rng, 32, 256, 1).Param()
		b.StartTimer()
		Mean(Softmax(x)).Backward()
	}
}

func BenchmarkLayerNorm(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 128, 64, 1)
	gamma := New(1, 64)
	for i := range gamma.Data {
		gamma.Data[i] = 1
	}
	beta := New(1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = LayerNorm(x, gamma, beta, 1e-5)
	}
}

// BenchmarkSegmentedAttention times the fused attention kernel at the two
// shapes that matter: one dense 2050×2050 segment (a Medium cluster's VM
// self-attention: a wave of one, all of it one segment) and a ragged
// eight-segment wave averaging 256 rows. d = dv = 32; Gflop/s counts
// 2·Σm_b·n_b·(d+dv) and leaves the softmax out.
//
// The absolute numbers are machine-dependent; compare two commits paired.
// Build each side once from its package directory,
//
//	go test -c -o /root/scratch/tensor.parent.test   (in the parent checkout)
//	go test -c -o /root/scratch/tensor.change.test   (here)
//
// and alternate the binaries, same -test.cpu list on both sides:
//
//	for i in 1 2 3 4 5; do for side in parent change change parent; do
//	  /root/scratch/tensor.$side.test -test.run '^$' -test.bench SegmentedAttention \
//	    -test.cpu 1,2 -test.benchtime 5x -test.timeout 10m
//	done; done
func BenchmarkSegmentedAttention(b *testing.B) {
	const d = 32
	for _, tc := range []struct {
		name string
		rows []int
	}{
		{"dense-2050", []int{2050}},
		{"ragged-8x256", []int{256, 64, 512, 128, 320, 192, 448, 128}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(6))
			off := []int{0}
			flops := 0
			for _, m := range tc.rows {
				off = append(off, off[len(off)-1]+m)
				flops += 2 * m * m * 2 * d
			}
			total := off[len(off)-1]
			q, k, v := Randn(rng, total, d, 1), Randn(rng, total, d, 1), Randn(rng, total, d, 1)
			var ar Arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				ar.SegmentedAttention(ar.Uninit(total, d), 0, q, k, v, off, off, 0.25)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "Gflop/s")
		})
	}
}
