package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Arena is the inference-mode scratch allocator: a bump allocator over a
// pool of reusable tensors. Ops invoked through an Arena never build
// autograd graphs — no parent links, no backward closures, no gradient
// buffers — and their outputs live until the next Reset, at which point the
// storage is recycled. After the first few forwards an arena reaches a
// steady state where a full policy forward performs zero heap allocations
// at GOMAXPROCS=1. Above it, each kernel whose product crosses
// mmParallelFlops fans out over goroutines, and each fan-out allocates a
// fixed handful (see fanOut).
//
// An Arena is not safe for concurrent use; give each worker goroutine its
// own (see policy's arena pool). Tensors returned by arena ops must not be
// retained across Reset and must not be fed into autograd ops that will be
// backpropagated through.
type Arena struct {
	tensors []*Tensor
	next    int
	// views are zero-copy headers (Rows, Reshape) kept separate from the
	// storage pool: their Data fields alias other tensors and must never be
	// recycled as backing buffers.
	views []*Tensor
	vnext int
	// qacts are recycled quantized-activation buffers (QuantizeActs).
	qacts []*QuantActs
	qnext int
}

// Reset recycles all tensors, views, and quantized-activation buffers handed
// out since the last Reset.
func (ar *Arena) Reset() { ar.next, ar.vnext, ar.qnext = 0, 0, 0 }

// view returns a reusable tensor header whose Data the caller will point at
// existing storage.
func (ar *Arena) view(data []float64, rows, cols int) *Tensor {
	if ar.vnext == len(ar.views) {
		ar.views = append(ar.views, new(Tensor))
	}
	t := ar.views[ar.vnext]
	ar.vnext++
	t.Data, t.Rows, t.Cols = data, rows, cols
	t.Grad, t.parents, t.backward, t.requiresGrad = nil, nil, nil, false
	return t
}

// Tensor returns a zeroed rows×cols tensor backed by recycled storage.
func (ar *Arena) Tensor(rows, cols int) *Tensor {
	t := ar.Uninit(rows, cols)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// Uninit returns a rows×cols tensor backed by recycled storage WITHOUT
// clearing it: recycled entries hold stale values from earlier ops. Use only
// when every element will be written before it is read — the case for most
// elementwise and copy ops, where the zeroing of Tensor is pure memclr
// overhead on the inference hot path. Accumulating consumers (MatMul,
// GroupedAttention) must use Tensor.
func (ar *Arena) Uninit(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: arena invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	if ar.next == len(ar.tensors) {
		ar.tensors = append(ar.tensors, &Tensor{Data: make([]float64, n)})
	}
	t := ar.tensors[ar.next]
	ar.next++
	if cap(t.Data) < n {
		t.Data = make([]float64, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
	t.Grad, t.parents, t.backward, t.requiresGrad = nil, nil, nil, false
	return t
}

// FromFlat copies row-major data into an arena tensor.
func (ar *Arena) FromFlat(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: arena FromFlat %dx%d with %d values", rows, cols, len(data)))
	}
	t := ar.Uninit(rows, cols)
	copy(t.Data, data)
	return t
}

// MatMul returns a·b (no graph), using the shared cache-blocked kernel.
func (ar *Arena) MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.Tensor(a.Rows, b.Cols)
	matMulInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return out
}

// MatMulT returns a·bᵀ (no graph).
func (ar *Arena) MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := ar.Uninit(a.Rows, b.Rows)
	matMulTInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
	return out
}

// Add returns a + b elementwise.
func (ar *Arena) Add(a, b *Tensor) *Tensor {
	sameShape(a, b, "arena Add")
	out := ar.Uninit(a.Rows, a.Cols)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddRow broadcasts a 1×n row onto every row of a.
func (ar *Arena) AddRow(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: arena AddRow %dx%d + %dx%d", a.Rows, a.Cols, row.Rows, row.Cols))
	}
	out := ar.Uninit(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		o := out.Data[i*a.Cols : (i+1)*a.Cols]
		x := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := range o {
			o[j] = x[j] + row.Data[j]
		}
	}
	return out
}

// AddRowInPlace adds row (1×n) onto every row of a and returns a. The
// values are identical to AddRow; a's storage is reused instead of a fresh
// tensor, halving the footprint of bias adds whose input is a single-use
// intermediate (Linear.Infer's matmul output). a must be a materialized
// arena tensor the caller owns exclusively — never a view.
func (ar *Arena) AddRowInPlace(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: arena AddRowInPlace %dx%d + %dx%d", a.Rows, a.Cols, row.Rows, row.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		o := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := range o {
			o[j] += row.Data[j]
		}
	}
	return a
}

// ReLUInPlace clamps a to max(a, 0) in place and returns a. Same ownership
// contract as AddRowInPlace.
func (ar *Arena) ReLUInPlace(a *Tensor) *Tensor {
	for i, v := range a.Data {
		if v <= 0 {
			a.Data[i] = 0
		}
	}
	return a
}

// Scale returns c·a.
func (ar *Arena) Scale(a *Tensor, c float64) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * c
	}
	return out
}

// ReLU returns max(a, 0).
func (ar *Arena) ReLU(a *Tensor) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	return out
}

// Softmax applies a row-wise softmax.
func (ar *Arena) Softmax(a *Tensor) *Tensor {
	out := ar.Uninit(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		rowSoftmaxInto(a.Data[i*a.Cols:(i+1)*a.Cols], out.Data[i*a.Cols:(i+1)*a.Cols])
	}
	return out
}

// MaskedFill writes fill where mask is false.
func (ar *Arena) MaskedFill(a *Tensor, mask []bool, fill float64) *Tensor {
	if len(mask) != len(a.Data) {
		panic(fmt.Sprintf("tensor: arena MaskedFill mask %d vs data %d", len(mask), len(a.Data)))
	}
	out := ar.Uninit(a.Rows, a.Cols)
	for i, v := range a.Data {
		if mask[i] {
			out.Data[i] = v
		} else {
			out.Data[i] = fill
		}
	}
	return out
}

// LayerNorm normalizes each row and applies the affine gamma/beta.
func (ar *Arena) LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	if gamma.Cols != a.Cols || beta.Cols != a.Cols || gamma.Rows != 1 || beta.Rows != 1 {
		panic("tensor: arena LayerNorm parameter shape")
	}
	out := ar.Uninit(a.Rows, a.Cols)
	n := float64(a.Cols)
	for i := 0; i < a.Rows; i++ {
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
		o := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			o[j] = (v-m)*is*gamma.Data[j] + beta.Data[j]
		}
	}
	return out
}

// ConcatRows stacks a (p×n) over b (q×n).
func (ar *Arena) ConcatRows(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: arena ConcatRows cols %d vs %d", a.Cols, b.Cols))
	}
	out := ar.Uninit(a.Rows+b.Rows, a.Cols)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// attn is one head of softmax attention over arena operands: query rows of q
// attend over rows of k/v and land in columns [col, col+v.Cols) of out, so a
// module's heads write side by side into one tensor. Its methods are the
// arena's only softmax-attention loops. No score or probability matrix ever
// exists: a worker holds the scores of two query rows (2·n floats), turns
// them into probabilities in place and folds them into the two output rows
// before it moves on. Every output row is computed from its own query row
// and its kv rows alone, in a fixed operation order, so its bits do not
// depend on which rows share a pass, a call, or a goroutine.
type attn struct {
	out     *Tensor
	col     int
	q, k, v *Tensor
	scale   float64
}

func newAttn(op string, out *Tensor, col int, q, k, v *Tensor, scale float64) attn {
	if q.Cols != k.Cols || k.Rows != v.Rows || out.Rows != q.Rows || col < 0 || col+v.Cols > out.Cols {
		panic(fmt.Sprintf("tensor: %s q %dx%d k %dx%d v %dx%d into %dx%d at column %d",
			op, q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols, out.Rows, out.Cols, col))
	}
	return attn{out, col, q, k, v, scale}
}

// fanOut runs f(0) … f(workers-1) on goroutines and waits for them. Callers
// keep the call in a function of its own: a goroutine closure heap-allocates
// its captures at function entry even when the serial path is taken, which
// would cost the hot loop an allocation per call.
func fanOut(workers int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// mix finishes query rows r0 and r1, whose scaled scores sit in s0 and s1 (s1
// nil: r0 alone): softmax in place (max, exp, ascending sum, divide), then
// p·V accumulated in ascending kv order into the zeroed output rows, each V
// row loaded once for both. kv row j is row kvRows[j] of v, or kv0+j when
// kvRows is nil. Zero probabilities are skipped, which changes no bit: the
// accumulator starts at +0 and x + ±0 == x.
func (a *attn) mix(s0, s1 []float64, r0, r1 int, kvRows []int, kv0 int) {
	dv, oc, vd := a.v.Cols, a.out.Cols, a.v.Data
	rowSoftmaxInto(s0, s0)
	o0 := a.out.Data[r0*oc+a.col : r0*oc+a.col+dv]
	clear(o0)
	if s1 == nil {
		for j, p := range s0 {
			if p == 0 {
				continue
			}
			r := kv0 + j
			if kvRows != nil {
				r = kvRows[j]
			}
			for c, vv := range vd[r*dv : (r+1)*dv] {
				o0[c] += p * vv
			}
		}
		return
	}
	rowSoftmaxInto(s1, s1)
	o1 := a.out.Data[r1*oc+a.col : r1*oc+a.col+dv]
	clear(o1)
	for j, p0 := range s0 {
		p1 := s1[j]
		if p0 == 0 && p1 == 0 {
			continue
		}
		r := kv0 + j
		if kvRows != nil {
			r = kvRows[j]
		}
		for c, vv := range vd[r*dv : (r+1)*dv] {
			o0[c] += p0 * vv
			o1[c] += p1 * vv
		}
	}
}

// GroupedAttention is the inference-mode block-diagonal attention (see the
// graph op of the same name): each row attends only within its group, and
// rows outside every group come out zero.
func (ar *Arena) GroupedAttention(q, k, v *Tensor, groups [][]int, scale float64) *Tensor {
	out := ar.Tensor(q.Rows, v.Cols)
	ar.GroupedAttentionRows(out, 0, q, k, v, groups, scale)
	return out
}

// groupsParallel chunks contiguous group ranges across workers, each with
// its own per-worker slice of the caller-allocated scratch (the arena is not
// goroutine-safe).
func (a attn) groupsParallel(groups [][]int, workers int, scratch []float64) {
	chunk := (len(groups) + workers - 1) / workers
	per := len(scratch) / workers
	fanOut(workers, func(w int) {
		lo, hi := min(w*chunk, len(groups)), min((w+1)*chunk, len(groups))
		a.groupRange(groups[lo:hi], scratch[w*per:(w+1)*per])
	})
}

// groupRange attends every row of the given groups within its group, two
// rows per pass. The score is the graph op's single-accumulator dot, not
// dense attention's four lanes, so arena and graph tree attention agree to
// the bit. scratch holds 2·maxS floats.
func (a *attn) groupRange(groups [][]int, scratch []float64) {
	for _, g := range groups {
		n := len(g)
		s0, s1 := scratch[:n], scratch[n:2*n]
		i := 0
		for ; i+2 <= n; i += 2 {
			a.groupScores(s0, g[i], g)
			a.groupScores(s1, g[i+1], g)
			a.mix(s0, s1, g[i], g[i+1], g, 0)
		}
		if i < n {
			a.groupScores(s0, g[i], g)
			a.mix(s0, nil, g[i], 0, g, 0)
		}
	}
}

// groupScores fills sc with row r's scaled scores against the rows of g.
func (a *attn) groupScores(sc []float64, r int, g []int) {
	d := a.q.Cols
	qr := a.q.Data[r*d : (r+1)*d]
	for b, r2 := range g {
		kr := a.k.Data[r2*d : (r2+1)*d]
		dp := 0.0
		for j, qv := range qr {
			dp += qv * kr[j]
		}
		sc[b] = dp * a.scale
	}
}

// SegmentedAttention computes scaled-dot-product attention independently per
// segment: query rows [qOff[b], qOff[b+1]) attend over kv rows [kvOff[b],
// kvOff[b+1]) — the block-diagonal structure of batching independent
// environments; one segment is plain dense attention. The result lands in
// columns [col, col+v.Cols) of out (out.Rows == q.Rows; the kernel zeroes
// what it writes). Per segment it is Float64bits-equal to
// MatMul(Softmax(Scale(MatMulT(q_b, k_b), scale)), v_b) — same 4-lane dot,
// same softmax, same ascending accumulate — without that composition's m×n
// intermediates. Above mmParallelFlops the query rows fan out across
// GOMAXPROCS goroutines in spans of equal weight, a row weighing its
// segment's kv length: a one-segment wave uses every core and a ragged wave
// balances, with bits unchanged because rows are independent.
func (ar *Arena) SegmentedAttention(out *Tensor, col int, q, k, v *Tensor, qOff, kvOff []int, scale float64) {
	nSeg := len(qOff) - 1
	if len(kvOff)-1 != nSeg {
		panic("tensor: SegmentedAttention offset lengths disagree")
	}
	a := newAttn("SegmentedAttention", out, col, q, k, v, scale)
	maxN, weight := 0, 0
	for b := 0; b < nSeg; b++ {
		n := kvOff[b+1] - kvOff[b]
		maxN = max(maxN, n)
		// +1: a row with nothing to attend over still has to be zeroed.
		weight += (qOff[b+1] - qOff[b]) * (n + 1)
	}
	workers := runtime.GOMAXPROCS(0)
	if weight*(q.Cols+v.Cols) < mmParallelFlops {
		workers = 1
	}
	scratch := ar.Uninit(workers, 2*maxN).Data
	if workers == 1 {
		a.segSpan(qOff, kvOff, 0, weight, scratch)
		return
	}
	a.segParallel(qOff, kvOff, weight, workers, scratch)
}

// segParallel hands worker w the w-th of `workers` equal spans of the total
// row weight and its own 2·maxN floats of the caller-allocated scratch.
func (a attn) segParallel(qOff, kvOff []int, weight, workers int, scratch []float64) {
	per := len(scratch) / workers
	fanOut(workers, func(w int) {
		a.segSpan(qOff, kvOff, w*weight/workers, (w+1)*weight/workers, scratch[w*per:(w+1)*per])
	})
}

// segSpan computes the query rows whose cumulative weight — (n_b+1) per row
// of segment b, in row order — starts inside [lo, hi).
func (a *attn) segSpan(qOff, kvOff []int, lo, hi int, scratch []float64) {
	base := 0
	for b := 0; b+1 < len(qOff); b++ {
		m, n := qOff[b+1]-qOff[b], kvOff[b+1]-kvOff[b]
		w := n + 1
		r0 := min((max(lo-base, 0)+w-1)/w, m)
		r1 := min((max(hi-base, 0)+w-1)/w, m)
		base += m * w
		if r0 < r1 {
			a.segRows(qOff[b]+r0, qOff[b]+r1, kvOff[b], n, scratch)
		}
	}
}

// segRows attends query rows [r0, r1) over kv rows [kv0, kv0+n), two rows
// per pass so each K row load serves both dots. The dot keeps matMulTInto's
// four lanes and (s0+s1)+(s2+s3) reduction; a lone last row goes through
// matMulTInto itself.
func (a *attn) segRows(r0, r1, kv0, n int, scratch []float64) {
	d, scale := a.q.Cols, a.scale
	kd := a.k.Data[kv0*d : (kv0+n)*d]
	s0, s1 := scratch[:n], scratch[n:2*n]
	r := r0
	for ; r+2 <= r1; r += 2 {
		q0 := a.q.Data[r*d : (r+1)*d]
		q1 := a.q.Data[(r+1)*d : (r+2)*d]
		for j := range s0 {
			kr := kd[j*d : (j+1)*d : (j+1)*d]
			var x0, x1, x2, x3, y0, y1, y2, y3 float64
			c := 0
			for ; c+4 <= len(kr); c += 4 {
				x0 += q0[c] * kr[c]
				x1 += q0[c+1] * kr[c+1]
				x2 += q0[c+2] * kr[c+2]
				x3 += q0[c+3] * kr[c+3]
				y0 += q1[c] * kr[c]
				y1 += q1[c+1] * kr[c+1]
				y2 += q1[c+2] * kr[c+2]
				y3 += q1[c+3] * kr[c+3]
			}
			for ; c < len(kr); c++ {
				x0 += q0[c] * kr[c]
				y0 += q1[c] * kr[c]
			}
			s0[j] = ((x0 + x1) + (x2 + x3)) * scale
			s1[j] = ((y0 + y1) + (y2 + y3)) * scale
		}
		a.mix(s0, s1, r, r+1, nil, kv0)
	}
	if r < r1 {
		matMulTInto(s0, a.q.Data[r*d:(r+1)*d], kd, 1, d, n)
		for j := range s0 {
			s0[j] *= scale
		}
		a.mix(s0, nil, r, 0, nil, kv0)
	}
}

// SetRows copies src into dst starting at row — the scatter half of
// batch assembly (the gather half is the zero-copy Rows view).
func (ar *Arena) SetRows(dst *Tensor, row int, src *Tensor) {
	if src.Cols != dst.Cols || row < 0 || row+src.Rows > dst.Rows {
		panic(fmt.Sprintf("tensor: arena SetRows %dx%d into %dx%d at %d",
			src.Rows, src.Cols, dst.Rows, dst.Cols, row))
	}
	copy(dst.Data[row*dst.Cols:(row+src.Rows)*dst.Cols], src.Data)
}

// Rows returns the row view a[lo:hi) — a slice header into a's storage, no
// copy. Valid for inference reads only.
func (ar *Arena) Rows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: arena Rows [%d:%d) of %d", lo, hi, a.Rows))
	}
	return ar.view(a.Data[lo*a.Cols:hi*a.Cols], hi-lo, a.Cols)
}

// GatherRows copies rows by index.
func (ar *Arena) GatherRows(a *Tensor, idx []int) *Tensor {
	out := ar.Uninit(len(idx), a.Cols)
	for r, i := range idx {
		if i < 0 || i >= a.Rows {
			panic(fmt.Sprintf("tensor: arena GatherRows index %d of %d", i, a.Rows))
		}
		copy(out.Data[r*a.Cols:(r+1)*a.Cols], a.Data[i*a.Cols:(i+1)*a.Cols])
	}
	return out
}

// RepeatRow tiles row (1×n) into (m×n) — the inference replacement for the
// ones-vector MatMul broadcast.
func (ar *Arena) RepeatRow(row *Tensor, m int) *Tensor {
	if row.Rows != 1 {
		panic(fmt.Sprintf("tensor: arena RepeatRow on %dx%d", row.Rows, row.Cols))
	}
	out := ar.Uninit(m, row.Cols)
	for i := 0; i < m; i++ {
		copy(out.Data[i*row.Cols:(i+1)*row.Cols], row.Data)
	}
	return out
}

// Transpose returns aᵀ.
func (ar *Arena) Transpose(a *Tensor) *Tensor {
	out := ar.Uninit(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// MeanRows reduces (m×n) to the column mean (1×n).
func (ar *Arena) MeanRows(a *Tensor) *Tensor {
	out := ar.Tensor(1, a.Cols)
	m := float64(a.Rows)
	if m == 0 {
		m = 1
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j] / m
		}
	}
	return out
}

// Reshape returns a rows×cols view sharing a's storage (no copy, no graph).
func (ar *Arena) Reshape(a *Tensor, rows, cols int) *Tensor {
	if rows*cols != a.Rows*a.Cols {
		panic(fmt.Sprintf("tensor: arena Reshape %dx%d -> %dx%d", a.Rows, a.Cols, rows, cols))
	}
	return ar.view(a.Data, rows, cols)
}
