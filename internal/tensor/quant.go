package tensor

import (
	"fmt"
	"math"
)

// Int8 quantized inference path.
//
// Weights are quantized per output channel with a symmetric scale: every
// channel j stores int8 values q in [-qMax, qMax] and a float64 scale such
// that w ≈ scale·q. Activations are quantized dynamically per row with the
// same symmetric scheme at matmul time. The range is ±63 — a 7-bit dynamic
// range in int8 storage — because that is what lets the kernel pack four
// multiply-accumulates into a single 64-bit integer multiply:
//
// Each value is offset by qOff=64 into a strictly positive lane value
// qu = q+64 ∈ [1,127]. Four activation lanes pack into one uint64 word
// (a0 + a1·2^16 + a2·2^32 + a3·2^48) and the matching weight lanes pack in
// REVERSED order (w3 + w2·2^16 + w1·2^32 + w0·2^48). In the 64-bit product
// the coefficient of 2^48 is exactly a0w0 + a1w1 + a2w2 + a3w3: each lane
// product is ≤ 127² = 16129, so the target coefficient is ≤ 4·16129 = 64516
// < 2^16 and the coefficient below it (three products, ≤ 48387) cannot
// carry into it — (A·W')>>48 & 0xffff is an exact 4-element dot product.
// The offset is then removed algebraically: with unsigned lane sums
// Σau (per activation row) and Σwu (per weight channel),
//
//	Σ q_a·q_w = P − 64·Σau − 64·Σwu + 4096·k
//
// where P is the packed dot over all words. Padding lanes (k not a multiple
// of 4) hold 0 on both sides, contribute 0 to P, and are excluded from the
// sums, so the identity holds with the true k. The whole pipeline is exact
// integer arithmetic — results are deterministic and platform-independent,
// and the only approximation versus the float path is the quantization of
// weights and activations itself.
const (
	// qMax is the symmetric quantized range: values live in [-qMax, qMax].
	qMax = 63
	// qOff shifts quantized values into the strictly positive lane range
	// [1, 127] required by the packed-multiply kernel.
	qOff = 64
	// qLanes is the number of int8 lanes packed per 64-bit word.
	qLanes = 4
)

// QuantizedWeight is a per-output-channel symmetric int8 quantization of a
// Linear weight matrix (In×Out float64 → Out×In int8 + Out scales). The
// packed lane representation consumed by the matmul kernel is precomputed at
// construction; Q and Scale are the canonical (checkpointable) form.
type QuantizedWeight struct {
	In, Out int
	// Q holds the quantized values channel-major: channel j occupies
	// Q[j*In:(j+1)*In], so each output channel's weights are contiguous —
	// the transposed layout the dot-product kernel streams.
	Q []int8
	// Scale is the per-output-channel dequantization factor: w ≈ Scale[j]·q.
	Scale []float64

	kp     int      // packed words per channel: ceil(In/qLanes)
	packed []uint64 // Out×kp lane-reversed packed channels
	colSum []int64  // per-channel sum of unsigned lanes (Σ q+qOff)
}

// QuantizeWeight quantizes a float64 weight matrix w (In×Out, the Linear
// layout) per output channel. Channels that are entirely zero get scale 0.
func QuantizeWeight(w *Tensor) *QuantizedWeight {
	in, out := w.Rows, w.Cols
	q := make([]int8, out*in)
	scale := make([]float64, out)
	for j := 0; j < out; j++ {
		maxabs := 0.0
		for i := 0; i < in; i++ {
			v := math.Abs(w.Data[i*out+j])
			if v > maxabs {
				maxabs = v
			}
		}
		scale[j] = maxabs / qMax
		inv := 0.0
		if maxabs > 0 {
			inv = qMax / maxabs
		}
		for i := 0; i < in; i++ {
			// Round half up, matching the activation quantizer.
			q[j*in+i] = int8(math.Floor(w.Data[i*out+j]*inv + 0.5))
		}
	}
	qw, err := NewQuantizedWeight(in, out, q, scale)
	if err != nil {
		panic("tensor: QuantizeWeight produced out-of-range values: " + err.Error())
	}
	return qw
}

// NewQuantizedWeight builds a QuantizedWeight from its canonical stored form
// (channel-major int8 values + per-channel scales), validating shapes and the
// [-qMax, qMax] value range — out-of-range values would corrupt the packed
// kernel's lane arithmetic, so a checkpoint carrying them is rejected here.
func NewQuantizedWeight(in, out int, q []int8, scale []float64) (*QuantizedWeight, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("tensor: quantized weight shape %dx%d", out, in)
	}
	if len(q) != in*out {
		return nil, fmt.Errorf("tensor: quantized weight %dx%d with %d values", out, in, len(q))
	}
	if len(scale) != out {
		return nil, fmt.Errorf("tensor: quantized weight %d channels with %d scales", out, len(scale))
	}
	for _, v := range q {
		if v < -qMax || v > qMax {
			return nil, fmt.Errorf("tensor: quantized value %d outside [%d, %d]", v, -qMax, qMax)
		}
	}
	kp := (in + qLanes - 1) / qLanes
	qw := &QuantizedWeight{
		In: in, Out: out, Q: q, Scale: scale,
		kp:     kp,
		packed: make([]uint64, out*kp),
		colSum: make([]int64, out),
	}
	for j := 0; j < out; j++ {
		ch := q[j*in : (j+1)*in]
		sum := int64(0)
		for t := 0; t < kp; t++ {
			var word uint64
			for l := 0; l < qLanes; l++ {
				kk := t*qLanes + l
				if kk >= in {
					break // padding lanes stay zero
				}
				qu := uint64(int64(ch[kk]) + qOff)
				sum += int64(qu)
				word |= qu << (16 * (qLanes - 1 - l)) // lane-reversed
			}
			qw.packed[j*kp+t] = word
		}
		qw.colSum[j] = sum
	}
	return qw, nil
}

// Dequantize reconstructs the float64 weight matrix (In×Out) the quantized
// form approximates.
func (qw *QuantizedWeight) Dequantize() *Tensor {
	w := New(qw.In, qw.Out)
	for j := 0; j < qw.Out; j++ {
		s := qw.Scale[j]
		for i := 0; i < qw.In; i++ {
			w.Data[i*qw.Out+j] = s * float64(qw.Q[j*qw.In+i])
		}
	}
	return w
}

// QuantActs is a row-quantized activation matrix: per row a symmetric scale
// plus packed unsigned lanes, ready for MatMulQ8. Instances are arena-pooled
// scratch — valid until the arena's next Reset, like arena tensors.
type QuantActs struct {
	Rows, Cols int
	kp         int
	packed     []uint64
	scale      []float64
	sum        []int64 // per-row sum of unsigned lanes
}

// quantActs returns a pooled QuantActs with capacity for rows×cols.
func (ar *Arena) quantActs(rows, cols int) *QuantActs {
	if ar.qnext == len(ar.qacts) {
		ar.qacts = append(ar.qacts, new(QuantActs))
	}
	qa := ar.qacts[ar.qnext]
	ar.qnext++
	kp := (cols + qLanes - 1) / qLanes
	if cap(qa.packed) < rows*kp {
		qa.packed = make([]uint64, rows*kp)
	}
	if cap(qa.scale) < rows {
		qa.scale = make([]float64, rows)
		qa.sum = make([]int64, rows)
	}
	qa.Rows, qa.Cols, qa.kp = rows, cols, kp
	qa.packed = qa.packed[:rows*kp]
	qa.scale = qa.scale[:rows]
	qa.sum = qa.sum[:rows]
	return qa
}

// QuantizeActs quantizes x row-wise (symmetric, dynamic per-row scale) into
// pooled scratch. Callers projecting the same activations through several
// quantized layers (multi-head attention's Q/K/V) quantize once and reuse.
func (ar *Arena) QuantizeActs(x *Tensor) *QuantActs {
	qa := ar.quantActs(x.Rows, x.Cols)
	quantPackRows(qa.packed, qa.scale, qa.sum, x.Data, x.Rows, x.Cols, qa.kp)
	return qa
}

// quantPackRows quantizes m rows of k float64s each into packed unsigned
// lanes: per row, scale = maxabs/qMax, q = round(v/scale), lane = q+qOff.
func quantPackRows(xp []uint64, xs []float64, xsum []int64, x []float64, m, k, kp int) {
	for i := 0; i < m; i++ {
		row := x[i*k : (i+1)*k : (i+1)*k]
		maxabs := 0.0
		// math.Abs compiles to a branchless sign-bit clear; an if v < 0
		// branch here mispredicts on every mixed-sign activation row and
		// doubles the cost of the scan.
		for _, v := range row {
			if a := math.Abs(v); a > maxabs {
				maxabs = a
			}
		}
		var inv float64
		if maxabs > 0 {
			inv = qMax / maxabs
			xs[i] = maxabs / qMax
		} else {
			xs[i] = 0
		}
		sum := int64(0)
		wp := xp[i*kp : (i+1)*kp : (i+1)*kp]
		t := 0
		for ; t+1 < kp; t++ {
			// Full word of 4 lanes. v·inv ∈ [-63, 63], so v·inv + 64.5 is
			// strictly positive and uint64 truncation computes
			// floor(v·inv + 0.5) + 64 — round half up plus the lane offset,
			// branch-free.
			base := t * qLanes
			q0 := uint64(row[base]*inv + (qOff + 0.5))
			q1 := uint64(row[base+1]*inv + (qOff + 0.5))
			q2 := uint64(row[base+2]*inv + (qOff + 0.5))
			q3 := uint64(row[base+3]*inv + (qOff + 0.5))
			sum += int64(q0 + q1 + q2 + q3)
			wp[t] = q0 | q1<<16 | q2<<32 | q3<<48
		}
		// Last word, possibly partial: padding lanes stay zero.
		var word uint64
		for l := 0; l < qLanes; l++ {
			kk := t*qLanes + l
			if kk >= k {
				break
			}
			q := uint64(row[kk]*inv + (qOff + 0.5))
			sum += int64(q)
			word |= q << (16 * l)
		}
		wp[t] = word
		xsum[i] = sum
	}
}

// MatMulQ8 multiplies pre-quantized activations by a quantized weight,
// optionally fusing a bias-row add (bias may be nil): out = dequant(qx·qwᵀ)
// [+ bias]. Every output cell is written exactly once.
func (ar *Arena) MatMulQ8(qx *QuantActs, qw *QuantizedWeight, bias *Tensor) *Tensor {
	if qx.Cols != qw.In {
		panic(fmt.Sprintf("tensor: MatMulQ8 %dx%d · quantized %dx%d", qx.Rows, qx.Cols, qw.In, qw.Out))
	}
	var biasData []float64
	if bias != nil {
		if bias.Rows != 1 || bias.Cols != qw.Out {
			panic(fmt.Sprintf("tensor: MatMulQ8 bias %dx%d for %d outputs", bias.Rows, bias.Cols, qw.Out))
		}
		biasData = bias.Data
	} else {
		// The kernel folds the bias into its dequantization epilogue
		// unconditionally (a branch per output channel would sit in the hot
		// loop); a zeroed arena row stands in when there is none.
		biasData = ar.Tensor(1, qw.Out).Data
	}
	out := ar.Uninit(qx.Rows, qw.Out)
	matMulQ8Into(out.Data, qx.packed, qx.scale, qx.sum, qw.packed, qw.Scale, qw.colSum, biasData, qx.Rows, qx.Cols, qx.kp, qw.Out)
	return out
}

// LinearQ8 is the fused quantized linear layer: quantize x row-wise, multiply
// by the quantized weight, dequantize with the bias add folded in. It
// replaces the float path's zeroed-tensor + matmul + bias-broadcast sequence
// with one pass and zero heap allocations at steady state, at GOMAXPROCS=1
// or below mmParallelFlops (a product that fans out allocates one fanOut's
// closures).
func (ar *Arena) LinearQ8(x *Tensor, qw *QuantizedWeight, bias *Tensor) *Tensor {
	if x.Cols != qw.In {
		panic(fmt.Sprintf("tensor: LinearQ8 %dx%d · quantized %dx%d", x.Rows, x.Cols, qw.In, qw.Out))
	}
	return ar.MatMulQ8(ar.QuantizeActs(x), qw, bias)
}
