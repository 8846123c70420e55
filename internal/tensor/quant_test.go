package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refQuantLinear computes the quantized linear the slow, obvious way: quantize
// activations per row and weights per channel with the same round-half-up
// rule, dot in plain int64 arithmetic, dequantize with the bias folded in.
// The packed kernel must match it bit for bit.
func refQuantLinear(x *Tensor, qw *QuantizedWeight, bias *Tensor) *Tensor {
	m, k, n := x.Rows, x.Cols, qw.Out
	out := New(m, n)
	xq := make([]int64, k)
	for i := 0; i < m; i++ {
		row := x.Data[i*k : (i+1)*k]
		maxabs := 0.0
		for _, v := range row {
			if math.Abs(v) > maxabs {
				maxabs = math.Abs(v)
			}
		}
		scale := maxabs / qMax
		inv := 0.0
		if maxabs > 0 {
			inv = qMax / maxabs
		}
		for kk, v := range row {
			xq[kk] = int64(math.Floor(v*inv + 0.5))
		}
		for j := 0; j < n; j++ {
			ch := qw.Q[j*k : (j+1)*k]
			dot := int64(0)
			for kk := range xq {
				dot += xq[kk] * int64(ch[kk])
			}
			b := 0.0
			if bias != nil {
				b = bias.Data[j]
			}
			out.Data[i*n+j] = b + scale*qw.Scale[j]*float64(dot)
		}
	}
	return out
}

func TestLinearQ8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ar := &Arena{}
	// Shapes cover partial last words (k % 4 != 0), channel remainders
	// (n % 4 != 0), single rows, and single outputs.
	for _, s := range []struct{ m, k, n int }{
		{5, 14, 64}, {7, 32, 32}, {3, 64, 32}, {2, 65, 64},
		{1, 32, 1}, {4, 1, 3}, {6, 5, 7}, {9, 8, 8},
	} {
		x := randTensor(rng, s.m, s.k)
		w := randTensor(rng, s.k, s.n)
		bias := randTensor(rng, 1, s.n)
		qw := QuantizeWeight(w)
		ar.Reset()
		got := ar.LinearQ8(x, qw, bias)
		want := refQuantLinear(x, qw, bias)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d cell %d: kernel %v reference %v",
					s.m, s.k, s.n, i, got.Data[i], want.Data[i])
			}
		}
		// Without bias (MatMulQ8 with nil).
		got = ar.MatMulQ8(ar.QuantizeActs(x), qw, nil)
		want = refQuantLinear(x, qw, nil)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%dx%d nil-bias cell %d: kernel %v reference %v",
					s.m, s.k, s.n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestLinearQ8ApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ar := &Arena{}
	m, k, n := 40, 32, 64
	x := randTensor(rng, m, k)
	w := randTensor(rng, k, n)
	bias := randTensor(rng, 1, n)
	qw := QuantizeWeight(w)
	got := ar.LinearQ8(x, qw, bias)
	want := ar.AddRowInPlace(ar.MatMul(x, w), bias)
	// Error budget: symmetric 7-bit quantization of both operands gives a
	// relative step of ~1/63 each; over a k=32 dot the accumulated error
	// stays well under 8% of the row magnitude.
	for i := 0; i < m; i++ {
		norm := 0.0
		for j := 0; j < n; j++ {
			norm += want.Data[i*n+j] * want.Data[i*n+j]
		}
		norm = math.Sqrt(norm / float64(n))
		for j := 0; j < n; j++ {
			diff := math.Abs(got.Data[i*n+j] - want.Data[i*n+j])
			if diff > 0.08*norm+1e-9 {
				t.Fatalf("cell (%d,%d): quantized %v float %v (row norm %v)",
					i, j, got.Data[i*n+j], want.Data[i*n+j], norm)
			}
		}
	}
}

func TestQuantizeWeightRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := randTensor(rng, 32, 16)
	qw := QuantizeWeight(w)
	// Canonical form → NewQuantizedWeight must reproduce the packed state.
	qw2, err := NewQuantizedWeight(qw.In, qw.Out, qw.Q, qw.Scale)
	if err != nil {
		t.Fatalf("NewQuantizedWeight: %v", err)
	}
	for i := range qw.packed {
		if qw.packed[i] != qw2.packed[i] {
			t.Fatalf("packed word %d differs after round trip", i)
		}
	}
	// Dequantize stays within half a quantization step of the original.
	deq := qw.Dequantize()
	for j := 0; j < qw.Out; j++ {
		step := qw.Scale[j]
		for i := 0; i < qw.In; i++ {
			diff := math.Abs(deq.Data[i*qw.Out+j] - w.Data[i*qw.Out+j])
			if diff > step/2+1e-12 {
				t.Fatalf("dequantized (%d,%d) off by %v > step/2 %v", i, j, diff, step/2)
			}
		}
	}
}

func TestNewQuantizedWeightRejectsBadInput(t *testing.T) {
	if _, err := NewQuantizedWeight(4, 2, make([]int8, 7), make([]float64, 2)); err == nil {
		t.Fatal("want error for wrong value count")
	}
	if _, err := NewQuantizedWeight(4, 2, make([]int8, 8), make([]float64, 3)); err == nil {
		t.Fatal("want error for wrong scale count")
	}
	if _, err := NewQuantizedWeight(0, 2, nil, nil); err == nil {
		t.Fatal("want error for zero dimension")
	}
	bad := make([]int8, 8)
	bad[3] = 127 // outside the ±63 lane-safe range
	if _, err := NewQuantizedWeight(4, 2, bad, make([]float64, 2)); err == nil {
		t.Fatal("want error for out-of-range quantized value")
	}
}

func TestLinearQ8ZeroRow(t *testing.T) {
	ar := &Arena{}
	x := New(2, 8) // all-zero activations: scale 0, result must be exactly bias
	w := randTensor(rand.New(rand.NewSource(5)), 8, 4)
	bias := fromSlice(1, 4, []float64{1, -2, 3, -4})
	got := ar.LinearQ8(x, w2q(w), bias)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			if got.Data[i*4+j] != bias.Data[j] {
				t.Fatalf("zero row cell (%d,%d) = %v, want bias %v", i, j, got.Data[i*4+j], bias.Data[j])
			}
		}
	}
}

func w2q(w *Tensor) *QuantizedWeight { return QuantizeWeight(w) }

// TestLinearQ8ParallelMatchesReference runs the int8 linear at 300×64×32,
// above mmParallelFlops, with GOMAXPROCS forced to 4 so its rows fan out:
// every cell must still equal the reference bit for bit.
func TestLinearQ8ParallelMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(8))
	x := randTensor(rng, 300, 64)
	qw := QuantizeWeight(randTensor(rng, 64, 32))
	bias := randTensor(rng, 1, 32)
	var ar Arena
	got := ar.LinearQ8(x, qw, bias)
	want := refQuantLinear(x, qw, bias)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("cell %d (row %d): kernel %v reference %v", i, i/32, got.Data[i], want.Data[i])
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun without its GOMAXPROCS=1 pin, so a
// product above mmParallelFlops takes its fan-out at the ambient GOMAXPROCS:
// the integer mean of heap allocations per call of f over runs calls, after
// as many warm-up calls (which also stock the runtime's free goroutine
// lists).
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

// fanOutAllocs is what one fanOut over w workers allocates: the caller's
// closure, the WaitGroup, and one closure per goroutine. The serial path
// (w == 1) allocates nothing.
func fanOutAllocs(w int) uint64 {
	if w <= 1 {
		return 0
	}
	return uint64(w) + 2
}

// TestLinearQ8SteadyStateAllocs pins the warm linear, int8 and float, at the
// ambient GOMAXPROCS (CI runs it at -cpu 1,2,4): zero allocations on the
// serial path — every shape at GOMAXPROCS=1, and 64×32×64, below
// mmParallelFlops, at any setting — and one fanOut's worth at 300×64×32, the
// FF-down serving shape, whose rows fan out above GOMAXPROCS=1.
func TestLinearQ8SteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range []struct{ m, k, n int }{{64, 32, 64}, {300, 64, 32}} {
		ar := &Arena{}
		x := randTensor(rng, s.m, s.k)
		w := randTensor(rng, s.k, s.n)
		qw := QuantizeWeight(w)
		bias := randTensor(rng, 1, s.n)
		want := fanOutAllocs(mmWorkers(s.m, s.k, s.n))
		q8 := allocsAtProcs(50, func() {
			ar.Reset()
			ar.LinearQ8(x, qw, bias)
		})
		f64 := allocsAtProcs(50, func() {
			ar.Reset()
			ar.AddRowInPlace(ar.MatMul(x, w), bias)
		})
		if q8 > want || f64 > want {
			t.Errorf("%dx%dx%d at GOMAXPROCS=%d: int8 %d, float %d allocs/op, want <= %d",
				s.m, s.k, s.n, runtime.GOMAXPROCS(0), q8, f64, want)
		}
	}
}

func BenchmarkLinearQ8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ m, k, n int }{
		{300, 14, 64}, {300, 64, 32}, {300, 32, 64}, {300, 32, 32}, {2000, 32, 64},
	} {
		b.Run(benchShapeName(s.m, s.k, s.n), func(b *testing.B) {
			ar := &Arena{}
			x := randTensor(rng, s.m, s.k)
			qw := QuantizeWeight(randTensor(rng, s.k, s.n))
			bias := randTensor(rng, 1, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				ar.LinearQ8(x, qw, bias)
			}
		})
	}
}

// BenchmarkLinearF64 is the float path LinearQ8 replaces (zeroed tensor +
// blocked matmul + bias broadcast), at the same shapes for comparison.
func BenchmarkLinearF64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ m, k, n int }{
		{300, 14, 64}, {300, 64, 32}, {300, 32, 64}, {300, 32, 32}, {2000, 32, 64},
	} {
		b.Run(benchShapeName(s.m, s.k, s.n), func(b *testing.B) {
			ar := &Arena{}
			x := randTensor(rng, s.m, s.k)
			w := randTensor(rng, s.k, s.n)
			bias := randTensor(rng, 1, s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				ar.AddRowInPlace(ar.MatMul(x, w), bias)
			}
		})
	}
}

func benchShapeName(m, k, n int) string {
	return itoa(m) + "x" + itoa(k) + "x" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
