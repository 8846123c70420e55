package tensor

import (
	"fmt"
	"math"
	"runtime"
)

// Row-sliced kernel entry points for the incremental inference path: each
// recomputes a selected subset of output rows of a cached activation matrix
// in place, bit-identically to the full kernel that produced it.
//
// Why bit-identical: every kernel here accumulates each output row in the
// same order as its full counterpart. matMulRange's (i,k) blocking walks kk
// strictly ascending for any fixed row regardless of the block shape or the
// two-rows-per-pass pairing, so a plain kk-ascending dot reproduces the same
// float additions in the same order. The only textual difference is the
// zero-skip: the paired kernel skips a kk only when BOTH rows' activations
// are zero, the row kernel when its own is — but a skipped term is av·bv
// with av == ±0, which for finite bv is ±0.0, and adding ±0.0 to any
// accumulator never changes its bits (the accumulator starts at +0.0, and
// IEEE round-to-nearest gives +0 + ±0 = +0, x + ±0 = x). The int8 kernel is
// exact integer arithmetic per row, and activation quantization is per-row
// independent. All entry points assume finite inputs, which the policy's
// normalized features and finite parameters guarantee — a ±Inf weight would
// make skip-vs-add observable (0·Inf = NaN), and would have poisoned
// training long before inference.
//
// The entry points are Arena methods for discoverability next to their full
// counterparts; only LinearQ8Rows draws (pooled, steady-state-free) scratch
// from the arena.

// LinearRows recomputes dst rows for the given row ids as x·w + bias — the
// row slice of Linear.Infer's float path (MatMul + AddRowInPlace). dst must
// be the cached full output of that computation; bias may be nil for a pure
// matmul patch. rows need not be sorted or unique.
func (ar *Arena) LinearRows(dst, x, w, bias *Tensor, rows []int) {
	k, n := x.Cols, w.Cols
	if w.Rows != k || dst.Cols != n || dst.Rows != x.Rows {
		panic(fmt.Sprintf("tensor: LinearRows x %dx%d · w %dx%d -> dst %dx%d",
			x.Rows, x.Cols, w.Rows, w.Cols, dst.Rows, dst.Cols))
	}
	if bias != nil && (bias.Rows != 1 || bias.Cols != n) {
		panic(fmt.Sprintf("tensor: LinearRows bias %dx%d for %d outputs", bias.Rows, bias.Cols, n))
	}
	for _, i := range rows {
		or := dst.Data[i*n : (i+1)*n : (i+1)*n]
		for j := range or {
			or[j] = 0
		}
		xr := x.Data[i*k : (i+1)*k : (i+1)*k]
		for kk, av := range xr {
			if av == 0 {
				continue
			}
			br := w.Data[kk*n : (kk+1)*n : (kk+1)*n]
			for j, bv := range br {
				or[j] += av * bv
			}
		}
		if bias != nil {
			for j := range or {
				or[j] += bias.Data[j]
			}
		}
	}
}

// LinearQ8Rows recomputes dst rows for the given row ids through the fused
// int8 path — the row slice of LinearQ8 (per-row dynamic activation
// quantization, packed-lane matmul, dequantize with the bias folded in).
// Activation quantization is per-row independent, so each patched row is
// bit-identical to its slot in a full LinearQ8. bias may be nil. Scratch is
// pooled arena storage (valid usage within one Reset cycle, zero steady-
// state allocations).
func (ar *Arena) LinearQ8Rows(dst, x *Tensor, qw *QuantizedWeight, bias *Tensor, rows []int) {
	k, n := qw.In, qw.Out
	if x.Cols != k || dst.Cols != n || dst.Rows != x.Rows {
		panic(fmt.Sprintf("tensor: LinearQ8Rows x %dx%d · quantized %dx%d -> dst %dx%d",
			x.Rows, x.Cols, k, n, dst.Rows, dst.Cols))
	}
	var biasData []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != n {
			panic(fmt.Sprintf("tensor: LinearQ8Rows bias %dx%d for %d outputs", bias.Rows, bias.Cols, n))
		}
		biasData = bias.Data
	} else {
		biasData = ar.Tensor(1, n).Data
	}
	qa := ar.quantActs(1, k)
	for _, i := range rows {
		quantPackRows(qa.packed, qa.scale, qa.sum, x.Data[i*k:(i+1)*k], 1, k, qa.kp)
		matMulQ8Into1(dst.Data[i*n:(i+1)*n], qa, qw, biasData, k, n)
	}
}

// matMulQ8Into1 computes one dequantized output row from a single packed
// activation row through the shared range kernel.
func matMulQ8Into1(dstRow []float64, qa *QuantActs, qw *QuantizedWeight, bias []float64, k, n int) {
	matMulQ8Range(dstRow, qa.packed, qa.scale, qa.sum, qw.packed, qw.Scale, qw.colSum, bias, 0, 1, k, qa.kp, n)
}

// AddRows recomputes dst rows as a + b for the given row ids — the row slice
// of Add (residual connections).
func (ar *Arena) AddRows(dst, a, b *Tensor, rows []int) {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRows %dx%d + %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := a.Cols
	for _, i := range rows {
		or := dst.Data[i*n : (i+1)*n : (i+1)*n]
		av := a.Data[i*n : (i+1)*n : (i+1)*n]
		bv := b.Data[i*n : (i+1)*n : (i+1)*n]
		for j := range or {
			or[j] = av[j] + bv[j]
		}
	}
}

// ReLURowsInPlace rectifies the given rows of a in place — the row slice of
// ReLUInPlace.
func (ar *Arena) ReLURowsInPlace(a *Tensor, rows []int) {
	n := a.Cols
	for _, i := range rows {
		r := a.Data[i*n : (i+1)*n : (i+1)*n]
		for j, v := range r {
			if v <= 0 {
				r[j] = 0
			}
		}
	}
}

// LayerNormRows recomputes dst rows for the given row ids — the row slice of
// LayerNorm (row-wise statistics, so rows are independent).
func (ar *Arena) LayerNormRows(dst, a, gamma, beta *Tensor, eps float64, rows []int) {
	if gamma.Cols != a.Cols || beta.Cols != a.Cols || gamma.Rows != 1 || beta.Rows != 1 {
		panic("tensor: LayerNormRows parameter shape")
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: LayerNormRows %dx%d -> dst %dx%d", a.Rows, a.Cols, dst.Rows, dst.Cols))
	}
	n := float64(a.Cols)
	for _, i := range rows {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= n
		va := 0.0
		for _, v := range row {
			va += (v - m) * (v - m)
		}
		va /= n
		is := 1 / math.Sqrt(va+eps)
		o := dst.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			o[j] = (v-m)*is*gamma.Data[j] + beta.Data[j]
		}
	}
}

// GroupedAttentionRows recomputes the given groups' rows of a grouped
// attention result in place, into columns [col, col+v.Cols) of out (one
// head's slot of a module's concatenated heads). Groups are disjoint and
// each row's attention spans only its group, so recomputing the groups that
// contain a changed row (from patched q/k/v) leaves every other row's bits
// untouched and reproduces the full pass exactly — the full pass,
// GroupedAttention, is this call over every group into a zeroed tensor. When
// the work is large (batched forwards concatenate every environment's trees
// into one call) contiguous group ranges fan out across GOMAXPROCS
// goroutines, each with its own scratch; per group the arithmetic is the
// same either way.
func (ar *Arena) GroupedAttentionRows(out *Tensor, col int, q, k, v *Tensor, groups [][]int, scale float64) {
	if q.Rows != k.Rows {
		panic(fmt.Sprintf("tensor: GroupedAttentionRows q %dx%d k %dx%d", q.Rows, q.Cols, k.Rows, k.Cols))
	}
	a := newAttn("GroupedAttentionRows", out, col, q, k, v, scale)
	maxS, work := 0, 0
	for _, g := range groups {
		maxS = max(maxS, len(g))
		work += len(g) * len(g) * (q.Cols + v.Cols)
	}
	workers := min(runtime.GOMAXPROCS(0), len(groups))
	if workers <= 1 || work < mmParallelFlops {
		a.groupRange(groups, ar.Uninit(1, 2*maxS).Data)
		return
	}
	a.groupsParallel(groups, workers, ar.Uninit(workers, 2*maxS).Data)
}
