package nn

import (
	"math"

	"vmr2l/internal/tensor"
)

// Row-sliced inference: every row-wise module can recompute a selected
// subset of output rows of a cached result in place, bit-identically to the
// full Infer that produced it (see internal/tensor/rows.go for the kernel
// parity argument). Dirt propagates 1:1 through row-wise stages — a dirty
// input row makes exactly one output row dirty — and expands to whole groups
// through tree attention (every row of a group reads the group's K/V rows).
// The caches here are persistent (heap) tensors, unlike the arena outputs of
// Infer, because they must survive across arena resets from one policy step
// to the next.

// InferRows recomputes the given rows of dst = l(x) in place. dst must hold
// the layer's cached full output for the current weights; x must already
// carry the new values for those rows. Dispatches to the same float or fused
// int8 row kernel the full Infer would use.
func (l *Linear) InferRows(ar *tensor.Arena, dst, x *tensor.Tensor, rows []int) {
	if l.Q != nil {
		ar.LinearQ8Rows(dst, x, l.Q, l.B, rows)
	} else {
		ar.LinearRows(dst, x, l.W, l.B, rows)
	}
}

// InferRows recomputes the given rows of dst = norm(x) in place (row-wise
// statistics, rows are independent).
func (l *LayerNorm) InferRows(ar *tensor.Arena, dst, x *tensor.Tensor, rows []int) {
	ar.LayerNormRows(dst, x, l.Gamma, l.Beta, 1e-5, rows)
}

// MLPCache holds the persistent intermediates of one MLP inference: the
// rectified hidden activation and the output. Both are needed to patch —
// an output row is recomputed from the hidden row, which is recomputed from
// the input row.
type MLPCache struct {
	Hidden *tensor.Tensor
	Out    *tensor.Tensor
}

// InferInto runs the full MLP and captures the intermediates into c,
// returning c.Out. The result is bit-identical to Infer: the hidden copy is
// taken after the in-place ReLU, and the output layer reads the copied
// hidden rows (same bits, same kernels).
func (m *MLP) InferInto(ar *tensor.Arena, c *MLPCache, x *tensor.Tensor) *tensor.Tensor {
	h := ar.ReLUInPlace(m.In.Infer(ar, x))
	c.Hidden = ensureTensor(c.Hidden, h.Rows, h.Cols)
	copy(c.Hidden.Data, h.Data)
	out := m.Out.Infer(ar, c.Hidden)
	c.Out = ensureTensor(c.Out, out.Rows, out.Cols)
	copy(c.Out.Data, out.Data)
	return c.Out
}

// InferRows patches the cached MLP result for the given dirty input rows:
// hidden rows are recomputed and re-rectified, then the corresponding output
// rows recomputed from them.
func (m *MLP) InferRows(ar *tensor.Arena, c *MLPCache, x *tensor.Tensor, rows []int) {
	m.In.InferRows(ar, c.Hidden, x, rows)
	ar.ReLURowsInPlace(c.Hidden, rows)
	m.Out.InferRows(ar, c.Out, c.Hidden, rows)
}

// TreeCache holds the persistent intermediates of one InferTree call: the
// per-head Q/K/V projections, the heads' grouped-attention outputs side by
// side (one column slot per head), and the Wo output. Enough state to
// recompute any subset of groups without touching the rest.
type TreeCache struct {
	QQ, KK, VV []*tensor.Tensor
	Heads      *tensor.Tensor
	Out        *tensor.Tensor
}

// InferTreeInto runs the full tree attention and captures every
// intermediate into c, returning c.Out — bit-identical to InferTree (same
// kernels over copies of the same values).
func (a *Attention) InferTreeInto(ar *tensor.Arena, c *TreeCache, x *tensor.Tensor, groups [][]int) *tensor.Tensor {
	nh := len(a.Wq)
	c.QQ = ensureTensors(c.QQ, nh)
	c.KK = ensureTensors(c.KK, nh)
	c.VV = ensureTensors(c.VV, nh)
	var qx *tensor.QuantActs
	if a.quantizedHeads() {
		qx = ar.QuantizeActs(x)
	}
	scale := 1 / math.Sqrt(float64(a.headDim))
	c.Heads = ensureTensor(c.Heads, x.Rows, nh*a.headDim)
	clear(c.Heads.Data) // rows outside every group stay zero
	for h := range a.Wq {
		c.QQ[h] = captureTensor(c.QQ[h], a.Wq[h].inferPre(ar, x, qx))
		c.KK[h] = captureTensor(c.KK[h], a.Wk[h].inferPre(ar, x, qx))
		c.VV[h] = captureTensor(c.VV[h], a.Wv[h].inferPre(ar, x, qx))
		ar.GroupedAttentionRows(c.Heads, h*a.headDim, c.QQ[h], c.KK[h], c.VV[h], groups, scale)
	}
	c.Out = captureTensor(c.Out, a.Wo.Infer(ar, c.Heads))
	return c.Out
}

// InferTreeRows patches the cached tree-attention result for a set of dirty
// input rows. dirtyRows are the rows of x whose values changed since the
// cache was primed; dirtyGroups the groups containing at least one dirty row
// (attention couples rows group-locally, so every member's output changes);
// groupRows the flattened member rows of dirtyGroups. Groups must be
// disjoint. Membership changes since the prime are safe as long as every
// group that gained or lost a member is included in dirtyGroups (with its
// current members): each group's output depends only on its own members, so
// recomputing the changed groups restores exactness. Dirty rows outside
// every group (machines with no tree) keep their zero attention output,
// exactly as the full kernel leaves them.
func (a *Attention) InferTreeRows(ar *tensor.Arena, c *TreeCache, x *tensor.Tensor, dirtyRows []int, dirtyGroups [][]int, groupRows []int) {
	scale := 1 / math.Sqrt(float64(a.headDim))
	for h := range a.Wq {
		a.Wq[h].InferRows(ar, c.QQ[h], x, dirtyRows)
		a.Wk[h].InferRows(ar, c.KK[h], x, dirtyRows)
		a.Wv[h].InferRows(ar, c.VV[h], x, dirtyRows)
		ar.GroupedAttentionRows(c.Heads, h*a.headDim, c.QQ[h], c.KK[h], c.VV[h], dirtyGroups, scale)
	}
	a.Wo.InferRows(ar, c.Out, c.Heads, groupRows)
}

// ensureTensor returns t resized to rows×cols with its storage reused when
// large enough. Contents are unspecified after a resize.
func ensureTensor(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	t.Rows, t.Cols = rows, cols
	t.Data = t.Data[:rows*cols]
	return t
}

// ensureTensors returns s with length n, keeping existing slots.
func ensureTensors(s []*tensor.Tensor, n int) []*tensor.Tensor {
	if cap(s) < n {
		grown := make([]*tensor.Tensor, n)
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// captureTensor copies src (an arena tensor) into the reusable persistent
// tensor dst, returning it.
func captureTensor(dst, src *tensor.Tensor) *tensor.Tensor {
	dst = ensureTensor(dst, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}
