// Package tensor is a minimal dense float64 tensor library with tape-based
// reverse-mode automatic differentiation — the substrate that replaces
// PyTorch in this reproduction (see DESIGN.md). It supports exactly the
// operations the VMR2L policy networks and PPO need: 2-D matrix algebra,
// row-wise softmax/log-softmax with additive masks, layer norm, elementwise
// nonlinearities, gathers, and reductions.
//
// Gradients flow through a dynamically built graph: every op records its
// parents and a backward closure; Backward() runs a topological sort and
// accumulates gradients into .Grad. Tensors are 2-D (rows × cols); vectors
// are 1×n or n×1 as convenient.
//
// Inference runs the same arithmetic on an Arena (arena.go) without a graph.
// Attention there is one fused row kernel (attn): for two query rows at a
// time it computes the scores into 2·n floats of worker-local scratch,
// softmaxes them in place and accumulates p·V straight into the output rows,
// so no m×n score or probability matrix is ever stored. A caller that needs
// probabilities asks for the rows it reads, op by op
// (Softmax(Scale(MatMulT(q_row, k)))). Every output element keeps the
// operation order of that op-by-op composition — four-lane dot reduced
// (s0+s1)+(s2+s3), × scale, max → exp → ascending sum → divide,
// ascending-j accumulate into a zeroed row — which is why fusing changed no
// bit. Large calls fan out over GOMAXPROCS by query rows weighted by their
// segment's kv length (SegmentedAttention) or by group ranges
// (GroupedAttention); rows are independent, so serial and parallel results
// are Float64bits-equal.
package tensor

import (
	"fmt"
	"math/rand"
)

// Tensor is a 2-D matrix with optional gradient tracking.
type Tensor struct {
	Data []float64
	Grad []float64
	Rows int
	Cols int

	requiresGrad bool
	parents      []*Tensor
	backward     func()
	// pool owns Data/Grad when non-nil (see GraphPool); op results inherit
	// it from their parents.
	pool *GraphPool
}

// New allocates a zero rows×cols heap tensor (see GraphPool.New for
// pool-owned graph inputs).
func New(rows, cols int) *Tensor { return (*GraphPool)(nil).New(rows, cols) }

// Pool returns the graph pool that owns the tensor's storage, nil for heap
// tensors.
func (t *Tensor) Pool() *GraphPool { return t.pool }

// Randn fills a new tensor with Gaussian values scaled by std.
func Randn(rng *rand.Rand, rows, cols int, std float64) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// Param marks the tensor as a trainable parameter (gradients accumulate).
func (t *Tensor) Param() *Tensor {
	t.requiresGrad = true
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t
}

// Scalar returns the single element of a 1×1 tensor.
func (t *Tensor) Scalar() float64 {
	if t.Rows*t.Cols != 1 {
		panic(fmt.Sprintf("tensor: Scalar on %dx%d", t.Rows, t.Cols))
	}
	return t.Data[0]
}

// child builds a result tensor wired into the graph when any parent
// requires grad. Storage comes from the first pooled parent's graph pool,
// from the heap when no parent is pooled.
func child(rows, cols int, parents ...*Tensor) *Tensor {
	var pool *GraphPool
	for _, p := range parents {
		if p.pool != nil {
			pool = p.pool
			break
		}
	}
	out := pool.New(rows, cols)
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.Grad = pool.alloc(len(out.Data))
		out.parents = parents
	}
	return out
}

// ensureGrad lazily allocates the gradient buffer of a graph-internal node.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = t.pool.alloc(len(t.Data))
	}
}

// Backward seeds the output gradient with 1 (the tensor must be 1×1) and
// back-propagates through the recorded graph.
func (t *Tensor) Backward() {
	if t.Rows*t.Cols != 1 {
		panic("tensor: Backward on non-scalar; reduce first")
	}
	if !t.requiresGrad {
		return
	}
	t.ensureGrad()
	t.Grad[0] = 1
	// Topological order via DFS.
	var order []*Tensor
	seen := map[*Tensor]bool{}
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if seen[n] || !n.requiresGrad {
			return
		}
		seen[n] = true
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(t)
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backward != nil {
			order[i].backward()
		}
	}
}

// ZeroGrad clears the gradient buffer.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}
