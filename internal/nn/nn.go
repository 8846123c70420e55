// Package nn provides the neural-network building blocks for the VMR2L
// policy: parameter registries, linear layers, layer norm, scaled dot-product
// attention with additive masks, the Adam optimizer, and checkpointing.
// It is the thin "framework" layer over package tensor that replaces
// PyTorch's nn module (see DESIGN.md).
//
// Checkpoints have one format (Params.SaveCKPT / Params.Load, ckpt.go):
// magic header, JSON manifest of tensor names/dtypes/shapes/offsets, then
// tightly-packed little-endian data. It round-trips float64 parameters bit-identically, carries
// int8-quantized linears (per-output-channel weights + scales, dtype "i8")
// so a quantized export serves on the int8 kernel path after load, and
// validates every manifest entry against the registered parameter shapes
// before reading any tensor data — corrupt or hostile files fail cleanly
// with named-tensor errors and never half-apply (see FuzzParamsLoad).
//
// Quantization itself lives in quantize.go: Params.QuantizeLinears converts
// the large linears to tensor.QuantizedWeight form (biases, norms, and
// small layers stay float64), after which layer forwards dispatch to the
// packed int8 GEMM kernels automatically.
//
// Every module has a graph Forward (the specification, differentiable) and
// an arena Infer (infer.go, infer_rows.go). For attention the two differ in
// what they return: Forward yields the output and the head-mean probability
// matrix; InferSeg and InferTree yield the output only — each head's fused
// kernel writes its column slot of one tensor and stores neither scores nor
// probabilities — and ProbRow computes a single probability row on request.
// The values agree with Forward to rounding of the GEMM orders (1e-12 in the
// policy's spec test) and are bit-stable across wave compositions.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"vmr2l/internal/tensor"
)

// Params is a named registry of trainable tensors. Modules register their
// parameters here so the optimizer and checkpointing can enumerate them
// deterministically. Linear layers additionally register themselves so
// quantization and checkpointing can find the module that owns a weight.
type Params struct {
	byName  map[string]*tensor.Tensor
	frozen  map[string]bool
	linears map[string]*Linear
	// version counts parameter mutations (optimizer steps, checkpoint loads,
	// quantize/dequantize). Inference caches key on it to detect that a
	// cached activation was computed with stale weights.
	version uint64
}

// Version returns the mutation counter for the registry's parameter values.
// It advances on every Adam step, checkpoint load, and quantization state
// change; two calls returning the same value bracket a window in which every
// forward pass saw identical weights.
func (p *Params) Version() uint64 { return p.version }

// NewParams returns an empty registry.
func NewParams() *Params {
	return &Params{byName: map[string]*tensor.Tensor{}, frozen: map[string]bool{}, linears: map[string]*Linear{}}
}

// Freeze marks every parameter whose name starts with prefix as frozen:
// optimizers skip it. This supports the paper's adaptation story (section 7:
// off-the-shelf finetuning such as top-layer tuning) — freeze the trunk,
// fine-tune the heads. Returns the number of parameters affected.
func (p *Params) Freeze(prefix string) int {
	n := 0
	for name := range p.byName {
		if strings.HasPrefix(name, prefix) {
			p.frozen[name] = true
			n++
		}
	}
	return n
}

// IsFrozen reports whether the named parameter is excluded from updates.
func (p *Params) IsFrozen(name string) bool { return p.frozen[name] }

// Register marks t as a parameter under name and returns it. Duplicate names
// panic: they indicate a module wiring bug.
func (p *Params) Register(name string, t *tensor.Tensor) *tensor.Tensor {
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p.byName[name] = t.Param()
	return t
}

// Names returns parameter names in sorted order.
func (p *Params) Names() []string {
	names := make([]string, 0, len(p.byName))
	for n := range p.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the named parameter or nil.
func (p *Params) Get(name string) *tensor.Tensor { return p.byName[name] }

// ZeroGrad clears every parameter gradient.
func (p *Params) ZeroGrad() {
	for _, t := range p.byName {
		t.ZeroGrad()
	}
}

// forEachOrdered visits parameters in sorted-name order. Reductions over
// gradients must use this, not map iteration: float accumulation is not
// associative, and map-order nondeterminism would leak into training.
func (p *Params) forEachOrdered(f func(t *tensor.Tensor)) {
	for _, name := range p.Names() {
		f(p.byName[name])
	}
}

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.byName {
		n += len(t.Data)
	}
	return n
}

// GradNorm returns the global L2 norm of all gradients.
func (p *Params) GradNorm() float64 {
	s := 0.0
	p.forEachOrdered(func(t *tensor.Tensor) {
		for _, g := range t.Grad {
			s += g * g
		}
	})
	return math.Sqrt(s)
}

// ClipGrad rescales all gradients so the global norm is at most maxNorm.
func (p *Params) ClipGrad(maxNorm float64) {
	norm := p.GradNorm()
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	p.forEachOrdered(func(t *tensor.Tensor) {
		for i := range t.Grad {
			t.Grad[i] *= scale
		}
	})
}

// Linear is a dense layer y = x·W + b. When Q is non-nil the layer also
// carries an int8 per-output-channel quantization of W, and Infer dispatches
// to the packed int8 kernel; Forward (the autograd path) always uses W.
type Linear struct {
	W *tensor.Tensor // in×out
	B *tensor.Tensor // 1×out
	// Q is the quantized form of W, set by Params.QuantizeLinears or by
	// loading an int8 checkpoint. Nil means the layer serves in float64.
	Q *tensor.QuantizedWeight
}

// NewLinear registers a Kaiming-initialized linear layer.
func NewLinear(p *Params, name string, rng *rand.Rand, in, out int) *Linear {
	std := math.Sqrt(2.0 / float64(in))
	l := &Linear{
		W: p.Register(name+".w", tensor.Randn(rng, in, out, std)),
		B: p.Register(name+".b", tensor.New(1, out)),
	}
	p.linears[name] = l
	return l
}

// Forward applies the layer to x (m×in) producing (m×out) as one fused
// graph node (tensor.Affine).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Affine(x, l.W, l.B)
}

// LayerNorm is a row-wise layer normalization module.
type LayerNorm struct {
	Gamma *tensor.Tensor
	Beta  *tensor.Tensor
}

// NewLayerNorm registers an identity-initialized layer norm of width n.
func NewLayerNorm(p *Params, name string, n int) *LayerNorm {
	gamma := tensor.New(1, n)
	for i := range gamma.Data {
		gamma.Data[i] = 1
	}
	return &LayerNorm{
		Gamma: p.Register(name+".gamma", gamma),
		Beta:  p.Register(name+".beta", tensor.New(1, n)),
	}
}

// Forward normalizes x row-wise.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNorm(x, l.Gamma, l.Beta, 1e-5)
}

// MLP is a two-layer perceptron with ReLU, the shared embedding network of
// the paper's feature extractor.
type MLP struct {
	In  *Linear
	Out *Linear
}

// NewMLP registers an in→hidden→out MLP.
func NewMLP(p *Params, name string, rng *rand.Rand, in, hidden, out int) *MLP {
	return &MLP{
		In:  NewLinear(p, name+".in", rng, in, hidden),
		Out: NewLinear(p, name+".out", rng, hidden, out),
	}
}

// Forward applies linear-ReLU-linear.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	return m.Out.Forward(tensor.ReLU(m.In.Forward(x)))
}

// Attention is multi-head scaled dot-product attention with separate query
// and key/value inputs and an optional boolean mask (false = forbidden pair).
// The paper's sparse tree-local attention is this module with a same-tree
// mask; PM/VM self-attention and VM→PM cross attention use it unmasked.
type Attention struct {
	// Per-head projections: head h uses Wq[h]/Wk[h]/Wv[h] mapping d -> d/h.
	Wq, Wk, Wv []*Linear
	Wo         *Linear
	headDim    int
}

// NewMultiHeadAttention registers an attention module with heads heads;
// d must be divisible by heads.
func NewMultiHeadAttention(p *Params, name string, rng *rand.Rand, d, heads int) *Attention {
	if heads < 1 || d%heads != 0 {
		panic(fmt.Sprintf("nn: attention width %d not divisible by %d heads", d, heads))
	}
	hd := d / heads
	a := &Attention{Wo: NewLinear(p, name+".wo", rng, d, d), headDim: hd}
	for h := 0; h < heads; h++ {
		suffix := ""
		if heads > 1 {
			suffix = fmt.Sprintf(".h%d", h)
		}
		a.Wq = append(a.Wq, NewLinear(p, name+".wq"+suffix, rng, d, hd))
		a.Wk = append(a.Wk, NewLinear(p, name+".wk"+suffix, rng, d, hd))
		a.Wv = append(a.Wv, NewLinear(p, name+".wv"+suffix, rng, d, hd))
	}
	return a
}

// ForwardTree is sparse tree-local self-attention: rows of x attend only
// within their disjoint group (one group per PM tree). Mathematically this
// is Forward with a same-group mask, but computed block-diagonally — the
// O(Σ s²·d) realization of the paper's sparse attention instead of a masked
// O(n²·d) dense pass. No probability matrix is returned; the tree stage
// never feeds the PM actor's score feature.
func (a *Attention) ForwardTree(x *tensor.Tensor, groups [][]int) *tensor.Tensor {
	var concat *tensor.Tensor
	scale := 1 / math.Sqrt(float64(a.headDim))
	for h := range a.Wq {
		qq := a.Wq[h].Forward(x)
		kk := a.Wk[h].Forward(x)
		vv := a.Wv[h].Forward(x)
		head := tensor.GroupedAttention(qq, kk, vv, groups, scale)
		if concat == nil {
			concat = head
		} else {
			concat = tensor.ConcatCols(concat, head)
		}
	}
	return a.Wo.Forward(concat)
}

// Forward attends queries q (m×d) over keys/values kv (n×d). mask, when
// non-nil, is row-major m×n with false marking forbidden pairs; fully
// masked rows degrade to uniform attention (tensor.Softmax semantics), which
// the callers exploit for isolated machines. It returns the output (m×d)
// and the mean attention probabilities across heads (m×n) for the PM
// actor's score feature.
func (a *Attention) Forward(q, kv *tensor.Tensor, mask []bool) (*tensor.Tensor, *tensor.Tensor) {
	var concat *tensor.Tensor
	var probsMean *tensor.Tensor
	for h := range a.Wq {
		qq := a.Wq[h].Forward(q)
		kk := a.Wk[h].Forward(kv)
		vv := a.Wv[h].Forward(kv)
		scores := tensor.Scale(tensor.MatMulT(qq, kk), 1/math.Sqrt(float64(a.headDim)))
		if mask != nil {
			scores = tensor.MaskedFill(scores, mask, -1e9)
		}
		probs := tensor.Softmax(scores)
		head := tensor.MatMul(probs, vv)
		if concat == nil {
			concat, probsMean = head, probs
		} else {
			concat = tensor.ConcatCols(concat, head)
			probsMean = tensor.Add(probsMean, probs)
		}
	}
	if len(a.Wq) > 1 {
		probsMean = tensor.Scale(probsMean, 1/float64(len(a.Wq)))
	}
	return a.Wo.Forward(concat), probsMean
}
