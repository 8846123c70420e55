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
// 3·heads projections.
func (a *Attention) InferTree(ar *tensor.Arena, x *tensor.Tensor, groups [][]int) *tensor.Tensor {
	var concat *tensor.Tensor
	var qx *tensor.QuantActs
	if a.quantizedHeads() {
		qx = ar.QuantizeActs(x)
	}
	scale := 1 / math.Sqrt(float64(a.headDim))
	for h := range a.Wq {
		qq := a.Wq[h].inferPre(ar, x, qx)
		kk := a.Wk[h].inferPre(ar, x, qx)
		vv := a.Wv[h].inferPre(ar, x, qx)
		head := ar.GroupedAttention(qq, kk, vv, groups, scale)
		if concat == nil {
			concat = head
		} else {
			concat = ar.ConcatCols(concat, head)
		}
	}
	return a.Wo.Infer(ar, concat)
}

// InferSeg is the arena-allocated, graph-free Forward over segments: q
// (Σm_b×d) and kv (Σn_b×d) stack B independent segments back to back, with
// qOff/kvOff the B+1 row offsets. Rows of segment b attend only over kv rows
// of segment b — the block-diagonal structure of batching independent
// environments into one forward pass; one segment is plain dense attention.
// The Q/K/V projections and the output layer each run as one stacked GEMM
// over all segments (the batching win); the score/softmax/value stage runs
// per segment on zero-copy row views, writing each segment's product
// directly into its slot of the stacked head tensor. Per segment the result
// is bit-identical whether the segment is alone or shares the call, because
// every kernel here computes each output row independently of how many other
// rows share the call. No mask is supported (the policy's self/cross
// attention never masks).
//
// probs is an optional reusable slice for the per-segment mean attention
// probabilities; the (possibly grown) slice is returned alongside the
// stacked output.
func (a *Attention) InferSeg(ar *tensor.Arena, q, kv *tensor.Tensor, qOff, kvOff []int, probs []*tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	nSeg := len(qOff) - 1
	if len(kvOff)-1 != nSeg {
		panic("nn: InferSeg offset lengths disagree")
	}
	if cap(probs) < nSeg {
		probs = make([]*tensor.Tensor, nSeg)
	} else {
		probs = probs[:nSeg]
	}
	var concat *tensor.Tensor
	qq8, qkv8 := a.quantInputs(ar, q, kv)
	scale := 1 / math.Sqrt(float64(a.headDim))
	for h := range a.Wq {
		qq := a.Wq[h].inferPre(ar, q, qq8)
		kk := a.Wk[h].inferPre(ar, kv, qkv8)
		vv := a.Wv[h].inferPre(ar, kv, qkv8)
		head, hp := ar.SegmentedAttention(qq, kk, vv, qOff, kvOff, scale)
		if h == 0 {
			copy(probs, hp)
		} else {
			for b := 0; b < nSeg; b++ {
				probs[b] = ar.Add(probs[b], hp[b])
			}
		}
		if concat == nil {
			concat = head
		} else {
			concat = ar.ConcatCols(concat, head)
		}
	}
	if len(a.Wq) > 1 {
		inv := 1 / float64(len(a.Wq))
		for b := 0; b < nSeg; b++ {
			probs[b] = ar.Scale(probs[b], inv)
		}
	}
	return a.Wo.Infer(ar, concat), probs
}
