package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func wantClose(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("%s: element %d: got %g want %g", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestArenaMatchesGraphOps checks every arena op against its autograd
// counterpart on random inputs.
func TestArenaMatchesGraphOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ar Arena
	for trial := 0; trial < 20; trial++ {
		ar.Reset()
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a := randTensor(rng, m, k)
		b := randTensor(rng, k, n)
		bt := randTensor(rng, n, k)
		wantClose(t, "MatMul", ar.MatMul(a, b), MatMul(a, b))
		wantClose(t, "MatMulT", ar.MatMulT(a, bt), MatMulT(a, bt))

		c := randTensor(rng, m, k)
		wantClose(t, "Add", ar.Add(a, c), Add(a, c))
		row := randTensor(rng, 1, k)
		wantClose(t, "AddRow", ar.AddRow(a, row), AddRow(a, row))
		wantClose(t, "Scale", ar.Scale(a, 2.5), Scale(a, 2.5))
		wantClose(t, "ReLU", ar.ReLU(a), ReLU(a))
		wantClose(t, "Softmax", ar.Softmax(a), Softmax(a))
		wantClose(t, "ConcatRows", ar.ConcatRows(a, c), ConcatRows(a, c))
		wantClose(t, "Transpose", ar.Transpose(a), Transpose(a))
		wantClose(t, "MeanRows", ar.MeanRows(a), MeanRows(a))
		wantClose(t, "Reshape", ar.Reshape(a, k, m), Reshape(a, k, m))

		gamma := randTensor(rng, 1, k)
		beta := randTensor(rng, 1, k)
		wantClose(t, "LayerNorm", ar.LayerNorm(a, gamma, beta, 1e-5), LayerNorm(a, gamma, beta, 1e-5))

		mask := make([]bool, m*k)
		for i := range mask {
			mask[i] = rng.Intn(2) == 0
		}
		wantClose(t, "MaskedFill", ar.MaskedFill(a, mask, -1e9), MaskedFill(a, mask, -1e9))

		idx := make([]int, 1+rng.Intn(5))
		for i := range idx {
			idx[i] = rng.Intn(m)
		}
		wantClose(t, "GatherRows", ar.GatherRows(a, idx), GatherRows(a, idx))

		lo := rng.Intn(m)
		hi := lo + rng.Intn(m-lo+1)
		rows := ar.Rows(a, lo, hi)
		want := New(hi-lo, k)
		copy(want.Data, a.Data[lo*k:hi*k])
		wantClose(t, "Rows", rows, want)

		rep := ar.RepeatRow(row, m)
		ones := New(m, 1)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		wantClose(t, "RepeatRow", rep, MatMul(ones, row))
	}
}

// TestMatMulParallelMatchesSerial exercises the goroutine fan-out path of
// the blocked kernel (above mmParallelFlops) against a naive multiply.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, k, n := 200, 80, 64 // m*k*n > mmParallelFlops, m > 2*mmBlock
	a := randTensor(rng, m, k)
	b := randTensor(rng, k, n)
	got := MatMul(a, b)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			want.Data[i*n+j] = s
		}
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("blocked matmul element %d: got %g want %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestArenaViewsDoNotCorruptStorage regression-tests that recycling a view
// header never zeroes the storage it aliased.
func TestArenaViewsDoNotCorruptStorage(t *testing.T) {
	var ar Arena
	rng := rand.New(rand.NewSource(3))
	a := randTensor(rng, 4, 4)
	v := ar.Reshape(a, 2, 8)
	_ = v
	ar.Reset()
	// Allocate storage, then take a view, then allocate more storage: the
	// view slot must not be reused as a zeroed buffer over live data.
	x := ar.FromFlat(2, 2, []float64{1, 2, 3, 4})
	_ = ar.Rows(x, 0, 1)
	y := ar.Tensor(2, 2)
	_ = y
	if x.Data[0] != 1 || x.Data[3] != 4 {
		t.Fatalf("view recycling corrupted storage: %v", x.Data)
	}
	ar.Reset()
	x2 := ar.FromFlat(2, 2, []float64{5, 6, 7, 8})
	_ = ar.Rows(x2, 1, 2)
	_ = ar.Tensor(2, 2)
	if x2.Data[0] != 5 || x2.Data[3] != 8 {
		t.Fatalf("view recycling corrupted storage after reset: %v", x2.Data)
	}
}

// TestArenaSteadyStateZeroAlloc verifies the bump allocator reaches zero
// allocations once warm.
func TestArenaSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ar Arena
	a := randTensor(rng, 8, 8)
	b := randTensor(rng, 8, 8)
	run := func() {
		ar.Reset()
		x := ar.MatMul(a, b)
		x = ar.ReLU(x)
		x = ar.Softmax(x)
		_ = ar.MeanRows(x)
	}
	run() // warm the pool
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state arena forward allocates %v times", allocs)
	}
}
