package tensor

import "fmt"

// GraphPool recycles the float64 buffers behind autograd graph nodes. PPO
// updates build and discard thousands of near-identical small graphs per
// second; routing their Data/Grad storage through a bump pool removes the
// allocator and GC pressure (the buffers are still zeroed on reuse, which
// the ops require).
//
// A pool has one owner (a trainer) and is not thread-safe. Ownership is
// explicit: the owner creates the graph's input tensors through the pool
// (New, FromRows), and every op result inherits the pool of its first pooled
// parent, so a graph grown from pooled inputs lives in the pool entirely.
// Tensors with no pooled ancestor — parameters, checkpoints, anything built
// with the package-level constructors — allocate from the heap and are never
// recycled. Never hold a pooled graph across Reset. A nil *GraphPool is
// valid everywhere and means "heap".
type GraphPool struct {
	bufs [][]float64
	next int
}

// New allocates a zero rows×cols tensor whose storage, and that of every
// graph node computed from it, belongs to the pool.
func (p *GraphPool) New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{Data: p.alloc(rows * cols), Rows: rows, Cols: cols, pool: p}
}

// FromRows builds a pool-owned tensor from equal-length rows.
func (p *GraphPool) FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return p.New(0, 0)
	}
	t := p.New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != t.Cols {
			panic("tensor: ragged rows")
		}
		copy(t.Data[i*t.Cols:], r)
	}
	return t
}

// Reset recycles every buffer handed out since the last Reset. All tensors
// whose storage came from the pool are invalid afterwards.
func (p *GraphPool) Reset() { p.next = 0 }

// get returns a zeroed buffer of length n.
func (p *GraphPool) get(n int) []float64 {
	if p.next == len(p.bufs) {
		p.bufs = append(p.bufs, make([]float64, n))
	}
	buf := p.bufs[p.next]
	if cap(buf) < n {
		buf = make([]float64, n)
		p.bufs[p.next] = buf
	} else {
		buf = buf[:n]
		for i := range buf {
			buf[i] = 0
		}
		p.bufs[p.next] = buf
	}
	p.next++
	return buf
}

// alloc returns a zeroed buffer of length n from the pool, or from the heap
// when p is nil.
func (p *GraphPool) alloc(n int) []float64 {
	if p == nil {
		return make([]float64, n)
	}
	return p.get(n)
}
