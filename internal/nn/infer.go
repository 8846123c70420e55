package nn

import (
	"math"

	"vmr2l/internal/tensor"
)

// Inference fast path: every module gets an Infer method that mirrors
// Forward but allocates outputs from a tensor.Arena and skips autograd graph
// construction entirely. PPO's Evaluate keeps using Forward (it needs
// gradients); rollouts, search, and serving use Infer. Outputs are valid
// until the arena's next Reset.

// Infer applies the linear layer without building a graph. A quantized
// layer dispatches to the fused int8 kernel (quantize rows, packed-lane
// matmul, dequantize with the bias folded in). On the float path the bias
// add lands in the matmul output in place: the intermediate is single-use,
// so skipping the extra tensor halves the layer's arena footprint — what
// keeps large batched forwards cache-resident.
func (l *Linear) Infer(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	if l.Q != nil {
		return ar.LinearQ8(x, l.Q, l.B)
	}
	return ar.AddRowInPlace(ar.MatMul(x, l.W), l.B)
}

// inferPre applies the layer to activations that may already be quantized:
// qx non-nil means x's rows were quantized once by the caller and shared
// across several projections (attention's Q/K/V over the same input).
func (l *Linear) inferPre(ar *tensor.Arena, x *tensor.Tensor, qx *tensor.QuantActs) *tensor.Tensor {
	if l.Q != nil && qx != nil {
		return ar.MatMulQ8(qx, l.Q, l.B)
	}
	return l.Infer(ar, x)
}

// quantInputs quantizes the attention inputs once for sharing across the
// per-head Q/K/V projections, when every head is quantized. Self-attention
// (q == kv) packs a single buffer for both sides.
func (a *Attention) quantInputs(ar *tensor.Arena, q, kv *tensor.Tensor) (qq8, qkv8 *tensor.QuantActs) {
	if !a.quantizedHeads() {
		return nil, nil
	}
	qq8 = ar.QuantizeActs(q)
	if kv == q {
		return qq8, qq8
	}
	return qq8, ar.QuantizeActs(kv)
}

// quantizedHeads reports whether every per-head projection of the attention
// module is quantized — the precondition for quantizing the input rows once
// and sharing the packed form across heads.
func (a *Attention) quantizedHeads() bool {
	for h := range a.Wq {
		if a.Wq[h].Q == nil || a.Wk[h].Q == nil || a.Wv[h].Q == nil {
			return false
		}
	}
	return len(a.Wq) > 0
}

// Infer normalizes x row-wise without building a graph.
func (l *LayerNorm) Infer(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return ar.LayerNorm(x, l.Gamma, l.Beta, 1e-5)
}

// Infer applies linear-ReLU-linear without building a graph. The hidden
// activation is rectified in place (single-use intermediate).
func (m *MLP) Infer(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	return m.Out.Infer(ar, ar.ReLUInPlace(m.In.Infer(ar, x)))
}

// InferTree is the arena-allocated, graph-free ForwardTree. With quantized
// heads the input rows are quantized once and the packed form feeds all
// 3·heads projections. Each head's kernel writes its column slot of one
// zeroed tensor (rows outside every group stay zero).
func (a *Attention) InferTree(ar *tensor.Arena, x *tensor.Tensor, groups [][]int) *tensor.Tensor {
	var qx *tensor.QuantActs
	if a.quantizedHeads() {
		qx = ar.QuantizeActs(x)
	}
	scale := 1 / math.Sqrt(float64(a.headDim))
	heads := ar.Tensor(x.Rows, len(a.Wq)*a.headDim)
	for h := range a.Wq {
		qq := a.Wq[h].inferPre(ar, x, qx)
		kk := a.Wk[h].inferPre(ar, x, qx)
		vv := a.Wv[h].inferPre(ar, x, qx)
		ar.GroupedAttentionRows(heads, h*a.headDim, qq, kk, vv, groups, scale)
	}
	return a.Wo.Infer(ar, heads)
}

// InferSeg is the arena-allocated, graph-free Forward over segments: q
// (Σm_b×d) and kv (Σn_b×d) stack B independent segments back to back, with
// qOff/kvOff the B+1 row offsets. Rows of segment b attend only over kv rows
// of segment b — the block-diagonal structure of batching independent
// environments into one forward pass; one segment is plain dense attention.
// The Q/K/V projections and the output layer each run as one stacked GEMM
// over all segments (the batching win); each head's fused
// score/softmax/value kernel (tensor.SegmentedAttention) writes its column
// slot of the stacked head tensor and stores no score or probability matrix.
// Per segment the result is bit-identical whether the segment is alone or
// shares the call, because every kernel here computes each output row
// independently of how many other rows share the call. No mask is supported
// (the policy's self/cross attention never masks). Forward's second result,
// the head-mean probabilities, is available one row at a time from ProbRow.
func (a *Attention) InferSeg(ar *tensor.Arena, q, kv *tensor.Tensor, qOff, kvOff []int) *tensor.Tensor {
	qq8, qkv8 := a.quantInputs(ar, q, kv)
	scale := 1 / math.Sqrt(float64(a.headDim))
	heads := ar.Uninit(q.Rows, len(a.Wq)*a.headDim)
	for h := range a.Wq {
		qq := a.Wq[h].inferPre(ar, q, qq8)
		kk := a.Wk[h].inferPre(ar, kv, qkv8)
		vv := a.Wv[h].inferPre(ar, kv, qkv8)
		ar.SegmentedAttention(heads, h*a.headDim, qq, kk, vv, qOff, kvOff, scale)
	}
	return a.Wo.Infer(ar, heads)
}

// ProbRow returns the head-mean attention probabilities (1×(hi-lo)) of query
// row qRow of q over rows [lo, hi) of kv — one row of Forward's second
// result, the only part of it inference reads (the PM actor's score feature
// is the selected VM's row). It re-projects that one query row and the
// segment's keys and runs the op-by-op softmax on the single score row;
// every kernel involved computes a row from that row's inputs alone, so the
// bits equal the matching row of the full m×n matrix that InferSeg no longer
// builds.
func (a *Attention) ProbRow(ar *tensor.Arena, q, kv *tensor.Tensor, qRow, lo, hi int) *tensor.Tensor {
	qr, ks := ar.Rows(q, qRow, qRow+1), ar.Rows(kv, lo, hi)
	qq8, qkv8 := a.quantInputs(ar, qr, ks)
	scale := 1 / math.Sqrt(float64(a.headDim))
	var mean *tensor.Tensor
	for h := range a.Wq {
		qq := a.Wq[h].inferPre(ar, qr, qq8)
		kk := a.Wk[h].inferPre(ar, ks, qkv8)
		p := ar.Softmax(ar.Scale(ar.MatMulT(qq, kk), scale))
		if mean == nil {
			mean = p
		} else {
			mean = ar.Add(mean, p)
		}
	}
	if len(a.Wq) > 1 {
		mean = ar.Scale(mean, 1/float64(len(a.Wq)))
	}
	return mean
}
