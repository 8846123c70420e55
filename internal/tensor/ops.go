package tensor

import (
	"fmt"
	"math"
)

func sameShape(a, b *Tensor, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Add returns a + b (elementwise).
func Add(a, b *Tensor) *Tensor {
	sameShape(a, b, "Add")
	out := child(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Sub returns a - b (elementwise).
func Sub(a, b *Tensor) *Tensor {
	sameShape(a, b, "Sub")
	out := child(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] -= out.Grad[i]
				}
			}
		}
	}
	return out
}

// Mul returns a ⊙ b (elementwise).
func Mul(a, b *Tensor) *Tensor {
	sameShape(a, b, "Mul")
	out := child(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i] * b.Data[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := range out.Grad {
					b.Grad[i] += out.Grad[i] * a.Data[i]
				}
			}
		}
	}
	return out
}

// Scale returns c·a.
func Scale(a *Tensor, c float64) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * c
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i] * c
			}
		}
	}
	return out
}

// AddScalar returns a + c.
func AddScalar(a *Tensor, c float64) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + c
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
	}
	return out
}

// MatMul returns a·b for a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := child(a.Rows, b.Cols, a, b)
	matMulInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				// dA += dOut · Bᵀ
				matMulTAccum(a.Grad, out.Grad, b.Data, a.Rows, b.Cols, a.Cols)
			}
			if b.requiresGrad {
				b.ensureGrad()
				// dB += Aᵀ · dOut
				matMulATAccum(b.Grad, a.Data, out.Grad, a.Rows, a.Cols, out.Cols)
			}
		}
	}
	return out
}

// MatMulT returns a·bᵀ for a (m×k) and b (n×k).
func MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := child(a.Rows, b.Rows, a, b)
	matMulTInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Rows)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				// dA += dOut · B
				matMulRange(a.Grad, out.Grad, b.Data, 0, a.Rows, out.Cols, a.Cols)
			}
			if b.requiresGrad {
				b.ensureGrad()
				// dB += dOutᵀ · A
				matMulATAccum(b.Grad, out.Grad, a.Data, a.Rows, out.Cols, a.Cols)
			}
		}
	}
	return out
}

// Affine returns x·w + b for x (m×k), w (k×n), b (1×n) as ONE graph node —
// the fused Linear layer. Compared to MatMul followed by AddRow it saves a
// full intermediate tensor (data + grad), one output traversal, and one
// backward closure per layer, which is most of the training hot path.
func Affine(x, w, b *Tensor) *Tensor {
	if x.Cols != w.Rows || b.Rows != 1 || b.Cols != w.Cols {
		panic(fmt.Sprintf("tensor: Affine %dx%d · %dx%d + %dx%d", x.Rows, x.Cols, w.Rows, w.Cols, b.Rows, b.Cols))
	}
	out := child(x.Rows, w.Cols, x, w, b)
	matMulInto(out.Data, x.Data, w.Data, x.Rows, x.Cols, w.Cols)
	n := w.Cols
	for i := 0; i < out.Rows; i++ {
		or := out.Data[i*n : (i+1)*n]
		for j := range or {
			or[j] += b.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			if x.requiresGrad {
				x.ensureGrad()
				// dX += dOut · Wᵀ
				matMulTAccum(x.Grad, out.Grad, w.Data, x.Rows, n, x.Cols)
			}
			if w.requiresGrad {
				w.ensureGrad()
				// dW += Xᵀ · dOut
				matMulATAccum(w.Grad, x.Data, out.Grad, x.Rows, x.Cols, n)
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := 0; i < out.Rows; i++ {
					gr := out.Grad[i*n : (i+1)*n]
					for j, g := range gr {
						b.Grad[j] += g
					}
				}
			}
		}
	}
	return out
}

// AddRow broadcasts a 1×n row vector onto every row of a (m×n).
func AddRow(a, row *Tensor) *Tensor {
	if row.Rows != 1 || row.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: AddRow %dx%d + %dx%d", a.Rows, a.Cols, row.Rows, row.Cols))
	}
	out := child(a.Rows, a.Cols, a, row)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + row.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range out.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if row.requiresGrad {
				row.ensureGrad()
				for i := 0; i < a.Rows; i++ {
					for j := 0; j < a.Cols; j++ {
						row.Grad[j] += out.Grad[i*a.Cols+j]
					}
				}
			}
		}
	}
	return out
}

// ReLU returns max(a, 0).
func ReLU(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, v := range a.Data {
				if v > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Tanh returns tanh(a).
func Tanh(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Data {
				a.Grad[i] += out.Grad[i] * (1 - out.Data[i]*out.Data[i])
			}
		}
	}
	return out
}

// Exp returns e^a.
func Exp(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Exp(v)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Data {
				a.Grad[i] += out.Grad[i] * out.Data[i]
			}
		}
	}
	return out
}

// Clamp limits values to [lo, hi]; gradients pass through only inside the
// range (straight-through at the boundary is zeroed, as in PPO clipping).
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		out.Data[i] = math.Min(math.Max(v, lo), hi)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, v := range a.Data {
				if v > lo && v < hi {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// Min returns elementwise min(a, b); the gradient flows to the smaller input
// (ties: a).
func Min(a, b *Tensor) *Tensor {
	sameShape(a, b, "Min")
	out := child(a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = math.Min(a.Data[i], b.Data[i])
	}
	if out.requiresGrad {
		out.backward = func() {
			for i := range out.Grad {
				if a.Data[i] <= b.Data[i] {
					if a.requiresGrad {
						a.ensureGrad()
						a.Grad[i] += out.Grad[i]
					}
				} else if b.requiresGrad {
					b.ensureGrad()
					b.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// GroupedAttention computes block-diagonal scaled dot-product attention:
// rows are partitioned into disjoint groups (the PM trees of the paper's
// sparse tree-local attention), and each row attends only within its group.
// Equivalent to full attention under a same-group mask, but O(Σ s_g²·d)
// instead of O(n²·d): scores, softmax, and the value mix are computed per
// group only. q, k, v are n×d; groups must cover every row exactly once.
// The backward closure retains groups until Backward runs — callers must
// not mutate or recycle the partition while the graph is alive.
func GroupedAttention(q, k, v *Tensor, groups [][]int, scale float64) *Tensor {
	if q.Rows != k.Rows || q.Rows != v.Rows || q.Cols != k.Cols {
		panic(fmt.Sprintf("tensor: GroupedAttention q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols))
	}
	d := q.Cols
	dv := v.Cols
	out := child(q.Rows, dv, q, k, v)
	// probs stores each group's attention matrix back to back (row-major
	// s×s blocks) for the backward pass.
	total := 0
	for _, g := range groups {
		total += len(g) * len(g)
	}
	probs := out.pool.alloc(total)
	maxS := 0
	for _, g := range groups {
		if len(g) > maxS {
			maxS = len(g)
		}
	}
	scores := out.pool.alloc(maxS)
	off := 0
	for _, g := range groups {
		s := len(g)
		for a, r1 := range g {
			qr := q.Data[r1*d : (r1+1)*d]
			for b, r2 := range g {
				kr := k.Data[r2*d : (r2+1)*d]
				dp := 0.0
				for j, qv := range qr {
					dp += qv * kr[j]
				}
				scores[b] = dp * scale
			}
			prow := probs[off+a*s : off+(a+1)*s]
			rowSoftmaxInto(scores[:s], prow)
			or := out.Data[r1*dv : (r1+1)*dv]
			for b, p := range prow {
				if p == 0 {
					continue
				}
				vr := v.Data[g[b]*dv : (g[b]+1)*dv]
				for j, vv := range vr {
					or[j] += p * vv
				}
			}
		}
		off += s * s
	}
	if out.requiresGrad {
		out.backward = func() {
			if q.requiresGrad {
				q.ensureGrad()
			}
			if k.requiresGrad {
				k.ensureGrad()
			}
			if v.requiresGrad {
				v.ensureGrad()
			}
			dp := out.pool.alloc(maxS)
			off := 0
			for _, g := range groups {
				s := len(g)
				for a, r1 := range g {
					gr := out.Grad[r1*dv : (r1+1)*dv]
					prow := probs[off+a*s : off+(a+1)*s]
					// dP[b] = dOut[r1]·v[g[b]], then dS = P⊙(dP - Σ dP·P).
					rowdot := 0.0
					for b, p := range prow {
						vr := v.Data[g[b]*dv : (g[b]+1)*dv]
						sum := 0.0
						for j, gv := range gr {
							sum += gv * vr[j]
						}
						dp[b] = sum
						rowdot += sum * p
					}
					qr := q.Data[r1*d : (r1+1)*d]
					for b, p := range prow {
						if v.requiresGrad && p != 0 {
							vgr := v.Grad[g[b]*dv : (g[b]+1)*dv]
							for j, gv := range gr {
								vgr[j] += p * gv
							}
						}
						ds := p * (dp[b] - rowdot) * scale
						if ds == 0 {
							continue
						}
						if q.requiresGrad {
							kr := k.Data[g[b]*d : (g[b]+1)*d]
							qgr := q.Grad[r1*d : (r1+1)*d]
							for j, kv := range kr {
								qgr[j] += ds * kv
							}
						}
						if k.requiresGrad {
							kgr := k.Grad[g[b]*d : (g[b]+1)*d]
							for j, qv := range qr {
								kgr[j] += ds * qv
							}
						}
					}
				}
				off += s * s
			}
		}
	}
	return out
}

// rowSoftmaxInto computes a numerically stable softmax of src row into dst.
func rowSoftmaxInto(src, dst []float64) {
	maxv := math.Inf(-1)
	for _, v := range src {
		if v > maxv {
			maxv = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		for i := range dst {
			dst[i] = 1 / float64(len(dst))
		}
		return
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// Softmax applies a row-wise softmax.
func Softmax(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	for i := 0; i < a.Rows; i++ {
		rowSoftmaxInto(a.Data[i*a.Cols:(i+1)*a.Cols], out.Data[i*a.Cols:(i+1)*a.Cols])
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				o := out.Data[i*a.Cols : (i+1)*a.Cols]
				g := out.Grad[i*a.Cols : (i+1)*a.Cols]
				dot := 0.0
				for j := range o {
					dot += o[j] * g[j]
				}
				ag := a.Grad[i*a.Cols : (i+1)*a.Cols]
				for j := range o {
					ag[j] += o[j] * (g[j] - dot)
				}
			}
		}
	}
	return out
}

// LogSoftmax applies a row-wise log-softmax.
func LogSoftmax(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, a)
	soft := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		src := a.Data[i*a.Cols : (i+1)*a.Cols]
		rowSoftmaxInto(src, soft)
		dst := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j := range soft {
			dst[j] = math.Log(soft[j] + 1e-300)
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				o := out.Data[i*a.Cols : (i+1)*a.Cols]
				g := out.Grad[i*a.Cols : (i+1)*a.Cols]
				sumG := 0.0
				for j := range g {
					sumG += g[j]
				}
				ag := a.Grad[i*a.Cols : (i+1)*a.Cols]
				for j := range g {
					ag[j] += g[j] - math.Exp(o[j])*sumG
				}
			}
		}
	}
	return out
}

// MaskedFill writes fill into positions where mask is false (mask is data,
// not differentiated) — used to hide illegal actions and non-tree attention
// pairs. mask is row-major with the same shape as a.
func MaskedFill(a *Tensor, mask []bool, fill float64) *Tensor {
	if len(mask) != len(a.Data) {
		panic(fmt.Sprintf("tensor: MaskedFill mask %d vs data %d", len(mask), len(a.Data)))
	}
	out := child(a.Rows, a.Cols, a)
	for i, v := range a.Data {
		if mask[i] {
			out.Data[i] = v
		} else {
			out.Data[i] = fill
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Grad {
				if mask[i] {
					a.Grad[i] += out.Grad[i]
				}
			}
		}
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// the affine parameters gamma and beta (1×n each).
func LayerNorm(a, gamma, beta *Tensor, eps float64) *Tensor {
	if gamma.Cols != a.Cols || beta.Cols != a.Cols || gamma.Rows != 1 || beta.Rows != 1 {
		panic("tensor: LayerNorm parameter shape")
	}
	out := child(a.Rows, a.Cols, a, gamma, beta)
	n := float64(a.Cols)
	means := out.pool.alloc(a.Rows)
	invstd := out.pool.alloc(a.Rows)
	xhat := out.pool.alloc(len(a.Data))
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
		means[i], invstd[i] = m, is
		for j, v := range row {
			x := (v - m) * is
			xhat[i*a.Cols+j] = x
			out.Data[i*a.Cols+j] = x*gamma.Data[j] + beta.Data[j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			var gp []float64
			if a.requiresGrad {
				gp = out.pool.alloc(a.Cols)
			}
			for i := 0; i < a.Rows; i++ {
				g := out.Grad[i*a.Cols : (i+1)*a.Cols]
				xh := xhat[i*a.Cols : (i+1)*a.Cols]
				if gamma.requiresGrad {
					gamma.ensureGrad()
					for j := range g {
						gamma.Grad[j] += g[j] * xh[j]
					}
				}
				if beta.requiresGrad {
					beta.ensureGrad()
					for j := range g {
						beta.Grad[j] += g[j]
					}
				}
				if a.requiresGrad {
					a.ensureGrad()
					// dL/dx = (gamma*invstd/n) * (n*g' - sum(g') - xhat*sum(g'*xhat))
					sumG, sumGX := 0.0, 0.0
					for j := range g {
						gp[j] = g[j] * gamma.Data[j]
						sumG += gp[j]
						sumGX += gp[j] * xh[j]
					}
					ag := a.Grad[i*a.Cols : (i+1)*a.Cols]
					for j := range g {
						ag[j] += invstd[i] / n * (n*gp[j] - sumG - xh[j]*sumGX)
					}
				}
			}
		}
	}
	return out
}

// Mean reduces to a 1×1 tensor.
func Mean(a *Tensor) *Tensor {
	out := child(1, 1, a)
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	n := float64(len(a.Data))
	if n == 0 {
		n = 1
	}
	out.Data[0] = s / n
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			g := out.Grad[0] / n
			for i := range a.Grad {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Sum reduces to a 1×1 tensor.
func Sum(a *Tensor) *Tensor {
	out := child(1, 1, a)
	for _, v := range a.Data {
		out.Data[0] += v
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[0]
			}
		}
	}
	return out
}

// MeanRows reduces a (m×n) to its column-mean (1×n).
func MeanRows(a *Tensor) *Tensor {
	out := child(1, a.Cols, a)
	m := float64(a.Rows)
	if m == 0 {
		m = 1
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j] += a.Data[i*a.Cols+j] / m
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += out.Grad[j] / m
				}
			}
		}
	}
	return out
}

// GatherRows selects rows by index into a new (len(idx)×n) tensor.
func GatherRows(a *Tensor, idx []int) *Tensor {
	out := child(len(idx), a.Cols, a)
	for r, i := range idx {
		if i < 0 || i >= a.Rows {
			panic(fmt.Sprintf("tensor: GatherRows index %d of %d", i, a.Rows))
		}
		copy(out.Data[r*a.Cols:(r+1)*a.Cols], a.Data[i*a.Cols:(i+1)*a.Cols])
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for r, i := range idx {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += out.Grad[r*a.Cols+j]
				}
			}
		}
	}
	return out
}

// PickPerRow selects one column per row, producing (m×1): out[i] = a[i, idx[i]].
func PickPerRow(a *Tensor, idx []int) *Tensor {
	if len(idx) != a.Rows {
		panic("tensor: PickPerRow needs one index per row")
	}
	out := child(a.Rows, 1, a)
	for i, j := range idx {
		if j < 0 || j >= a.Cols {
			panic(fmt.Sprintf("tensor: PickPerRow index %d of %d", j, a.Cols))
		}
		out.Data[i] = a.Data[i*a.Cols+j]
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i, j := range idx {
				a.Grad[i*a.Cols+j] += out.Grad[i]
			}
		}
	}
	return out
}

// ConcatCols concatenates a (m×p) and b (m×q) into (m×(p+q)).
func ConcatCols(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols rows %d vs %d", a.Rows, b.Rows))
	}
	out := child(a.Rows, a.Cols+b.Cols, a, b)
	for i := 0; i < a.Rows; i++ {
		copy(out.Data[i*out.Cols:], a.Data[i*a.Cols:(i+1)*a.Cols])
		copy(out.Data[i*out.Cols+a.Cols:], b.Data[i*b.Cols:(i+1)*b.Cols])
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := 0; i < a.Rows; i++ {
					for j := 0; j < a.Cols; j++ {
						a.Grad[i*a.Cols+j] += out.Grad[i*out.Cols+j]
					}
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				for i := 0; i < b.Rows; i++ {
					for j := 0; j < b.Cols; j++ {
						b.Grad[i*b.Cols+j] += out.Grad[i*out.Cols+a.Cols+j]
					}
				}
			}
		}
	}
	return out
}

// ConcatRows stacks a (p×n) over b (q×n) into ((p+q)×n).
func ConcatRows(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: ConcatRows cols %d vs %d", a.Cols, b.Cols))
	}
	out := child(a.Rows+b.Rows, a.Cols, a, b)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				for i := range a.Data {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requiresGrad {
				b.ensureGrad()
				off := len(a.Data)
				for i := range b.Data {
					b.Grad[i] += out.Grad[off+i]
				}
			}
		}
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Tensor) *Tensor {
	out := child(a.Cols, a.Rows, a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Grad[i*a.Cols+j] += out.Grad[j*a.Rows+i]
				}
			}
		}
	}
	return out
}

// Reshape reinterprets a as rows×cols (same element count), preserving
// gradients. Data is copied so the graph stays append-only.
func Reshape(a *Tensor, rows, cols int) *Tensor {
	if rows*cols != a.Rows*a.Cols {
		panic(fmt.Sprintf("tensor: Reshape %dx%d -> %dx%d", a.Rows, a.Cols, rows, cols))
	}
	out := child(rows, cols, a)
	copy(out.Data, a.Data)
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i]
			}
		}
	}
	return out
}
