package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randArena builds a deterministic random tensor directly (no graph).
func randDense(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// refSegmentedAttention is the op-by-op composition SegmentedAttention fuses,
// per segment: MatMul(Softmax(Scale(MatMulT(q_b, k_b), scale)), v_b), stacked.
func refSegmentedAttention(q, k, v *Tensor, qOff, kvOff []int, scale float64) *Tensor {
	var ref Arena
	out := New(q.Rows, v.Cols)
	for b := 0; b+1 < len(qOff); b++ {
		qb := ref.Rows(q, qOff[b], qOff[b+1])
		kb := ref.Rows(k, kvOff[b], kvOff[b+1])
		vb := ref.Rows(v, kvOff[b], kvOff[b+1])
		o := ref.MatMul(ref.Softmax(ref.Scale(ref.MatMulT(qb, kb), scale)), vb)
		copy(out.Data[qOff[b]*v.Cols:], o.Data)
	}
	return out
}

// segmentedInto runs the kernel into column slot col of a width-wide tensor
// pre-filled with NaN, and returns the slot after checking that every other
// column still holds its NaN: the kernel zeroes and writes its own slot only.
func segmentedInto(t *testing.T, ar *Arena, width, col int, q, k, v *Tensor, qOff, kvOff []int, scale float64) *Tensor {
	t.Helper()
	ar.Reset()
	wide := ar.Uninit(q.Rows, width)
	for i := range wide.Data {
		wide.Data[i] = math.NaN()
	}
	ar.SegmentedAttention(wide, col, q, k, v, qOff, kvOff, scale)
	out := New(q.Rows, v.Cols)
	for r := 0; r < q.Rows; r++ {
		for c := 0; c < width; c++ {
			x := wide.Data[r*width+c]
			if c >= col && c < col+v.Cols {
				out.Data[r*v.Cols+c-col] = x
			} else if !math.IsNaN(x) {
				t.Fatalf("row %d column %d outside slot [%d,%d) was written: %v", r, c, col, col+v.Cols, x)
			}
		}
	}
	return out
}

// TestSegmentedAttentionMatchesPerSegmentOps pins SegmentedAttention against
// the op-by-op composition it replaces, per segment.
func TestSegmentedAttentionMatchesPerSegmentOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	qOff := []int{0, 5, 5, 12, 20}
	kvOff := []int{0, 7, 9, 9, 16}
	d, dv := 8, 6
	q := randDense(rng, qOff[len(qOff)-1], d)
	k := randDense(rng, kvOff[len(kvOff)-1], d)
	v := randDense(rng, kvOff[len(kvOff)-1], dv)
	var ar Arena
	out := segmentedInto(t, &ar, dv, 0, q, k, v, qOff, kvOff, 0.35)
	assertTensorBits(t, "SegmentedAttention", out, refSegmentedAttention(q, k, v, qOff, kvOff, 0.35))
}

// TestSegmentedAttentionParallelBitIdentical forces the goroutine fan-out
// (GOMAXPROCS > 1, work above the parallel threshold) and asserts the result
// matches the serial pass bit for bit — the contract that lets batched
// forwards parallelize without breaking InferBatch/Infer equivalence.
func TestSegmentedAttentionParallelBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(7))
	const segs, m, n, d = 8, 48, 48, 32
	qOff := make([]int, segs+1)
	kvOff := make([]int, segs+1)
	for b := 1; b <= segs; b++ {
		qOff[b] = qOff[b-1] + m
		kvOff[b] = kvOff[b-1] + n
	}
	q := randDense(rng, qOff[segs], d)
	k := randDense(rng, kvOff[segs], d)
	v := randDense(rng, kvOff[segs], d)
	// Work = segs·m·n·2d ≈ 1.2M flops: above mmParallelFlops, so with
	// GOMAXPROCS=4 this runs the parallel branch.
	var ar Arena
	out := segmentedInto(t, &ar, d, 0, q, k, v, qOff, kvOff, 0.25)

	runtime.GOMAXPROCS(1) // serial reference
	var ser Arena
	want := segmentedInto(t, &ser, d, 0, q, k, v, qOff, kvOff, 0.25)
	runtime.GOMAXPROCS(4)
	assertTensorBits(t, "parallel vs serial", out, want)
}

// TestSegmentedAttentionProperty drives random ragged layouts — empty
// segments on either side, odd row counts (pair tails), n = 1, dv ≠ d, dot
// tails (d not a multiple of 4), a head slot inside a wider tensor, and
// shapes on both sides of the fan-out threshold — at GOMAXPROCS 1, 2 and 4:
// the output must be Float64bits-equal to the op-by-op composition, hence
// identical serial and parallel and however the row spans fall.
func TestSegmentedAttentionProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(16))
	sizes := []int{0, 1, 2, 3, 5, 8, 17, 64, 131}
	var ar Arena
	for trial := 0; trial < 60; trial++ {
		nSeg := 1 + rng.Intn(6)
		qOff, kvOff := make([]int, nSeg+1), make([]int, nSeg+1)
		for b := 0; b < nSeg; b++ {
			qOff[b+1] = qOff[b] + sizes[rng.Intn(len(sizes))]
			kvOff[b+1] = kvOff[b] + sizes[rng.Intn(len(sizes))]
		}
		d, dv := 1+rng.Intn(33), 1+rng.Intn(20)
		q := randDense(rng, qOff[nSeg], d)
		k := randDense(rng, kvOff[nSeg], d)
		v := randDense(rng, kvOff[nSeg], dv)
		scale := 1 / math.Sqrt(float64(d))
		col := rng.Intn(4)
		width := col + dv + rng.Intn(3)
		want := refSegmentedAttention(q, k, v, qOff, kvOff, scale)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := segmentedInto(t, &ar, width, col, q, k, v, qOff, kvOff, scale)
			assertTensorBits(t, fmt.Sprintf("trial %d q%v kv%v d=%d dv=%d procs=%d", trial, qOff, kvOff, d, dv, procs), got, want)
		}
	}
}

// TestSegmentedAttentionSteadyStateAllocs pins the kernel at zero heap
// allocations once the arena is warm — on the serial path at any GOMAXPROCS
// (a goroutine closure that captured at function entry would show here), and
// at the Medium dense shape, where the old kernel held two m×n buffers.
func TestSegmentedAttentionSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ procs, m, n, d int }{{1, 700, 700, 16}, {4, 9, 7, 16}} {
		runtime.GOMAXPROCS(tc.procs)
		q, k, v := randDense(rng, tc.m, tc.d), randDense(rng, tc.n, tc.d), randDense(rng, tc.n, tc.d)
		qOff, kvOff := []int{0, tc.m}, []int{0, tc.n}
		var ar Arena
		run := func() {
			ar.Reset()
			ar.SegmentedAttention(ar.Uninit(tc.m, tc.d), 0, q, k, v, qOff, kvOff, 0.25)
		}
		run()
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Fatalf("GOMAXPROCS=%d %dx%d: %v allocs per call, want 0", tc.procs, tc.m, tc.n, allocs)
		}
	}
}

// TestGroupedAttentionParallelBitIdentical does the same for the tree
// attention fan-out across group chunks.
func TestGroupedAttentionParallelBitIdentical(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(9))
	const rows, d = 256, 32
	q := randDense(rng, rows, d)
	k := randDense(rng, rows, d)
	v := randDense(rng, rows, d)
	var groups [][]int
	for lo := 0; lo < rows; lo += 16 {
		g := make([]int, 16)
		for i := range g {
			g[i] = lo + i
		}
		groups = append(groups, g)
	}
	// Work = 16 groups · 16²·2d ≈ 262k flops: at the parallel threshold.
	var ar Arena
	got := ar.GroupedAttention(q, k, v, groups, 0.2)
	runtime.GOMAXPROCS(1)
	var ser Arena
	want := ser.GroupedAttention(q, k, v, groups, 0.2)
	runtime.GOMAXPROCS(4)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("out[%d]: parallel %v != serial %v", i, got.Data[i], want.Data[i])
		}
	}
}
