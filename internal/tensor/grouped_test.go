package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// denseTreeAttention is the reference: full masked attention with a
// same-group mask, the pre-optimization realization of tree-local attention.
func denseTreeAttention(q, k, v *Tensor, groups [][]int, scale float64) *Tensor {
	n := q.Rows
	mask := make([]bool, n*n)
	for _, g := range groups {
		for _, i := range g {
			for _, j := range g {
				mask[i*n+j] = true
			}
		}
	}
	scores := MaskedFill(Scale(MatMulT(q, k), scale), mask, -1e9)
	return MatMul(Softmax(scores), v)
}

func randGroups(rng *rand.Rand, n int) [][]int {
	var groups [][]int
	perm := rng.Perm(n)
	for i := 0; i < n; {
		s := 1 + rng.Intn(4)
		if i+s > n {
			s = n - i
		}
		g := append([]int(nil), perm[i:i+s]...)
		// Ascending members, matching the policy's group construction.
		for a := 1; a < len(g); a++ {
			for b := a; b > 0 && g[b] < g[b-1]; b-- {
				g[b], g[b-1] = g[b-1], g[b]
			}
		}
		groups = append(groups, g)
		i += s
	}
	return groups
}

// TestGroupedAttentionMatchesMaskedDense verifies the block-diagonal op
// equals full attention under the equivalent mask.
func TestGroupedAttentionMatchesMaskedDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n, d := 2+rng.Intn(12), 1+rng.Intn(8)
		q := randTensor(rng, n, d)
		k := randTensor(rng, n, d)
		v := randTensor(rng, n, d)
		groups := randGroups(rng, n)
		scale := 1 / math.Sqrt(float64(d))
		got := GroupedAttention(q, k, v, groups, scale)
		want := denseTreeAttention(q, k, v, groups, scale)
		for i := range want.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("trial %d element %d: got %g want %g", trial, i, got.Data[i], want.Data[i])
			}
		}
		var ar Arena
		fast := ar.GroupedAttention(q, k, v, groups, scale)
		for i := range want.Data {
			if math.Abs(fast.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("trial %d arena element %d: got %g want %g", trial, i, fast.Data[i], want.Data[i])
			}
		}
		// The arena kernel pairs rows and shares V loads but keeps the graph
		// op's per-row operation order: same bits, not just 1e-12.
		assertTensorBits(t, "arena vs graph op", fast, got)
	}
}

// TestGroupedAttentionGradients checks the custom backward against the
// masked-dense graph's gradients (same loss, same inputs).
func TestGroupedAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		n, d := 2+rng.Intn(8), 1+rng.Intn(6)
		mk := func() (*Tensor, *Tensor) {
			a := randTensor(rng, n, d)
			b := fromSlice(n, d, a.Data)
			return a.Param(), b.Param()
		}
		q1, q2 := mk()
		k1, k2 := mk()
		v1, v2 := mk()
		groups := randGroups(rng, n)
		scale := 1 / math.Sqrt(float64(d))
		// Weighted sum keeps the loss sensitive to every output element.
		w := randTensor(rng, n, d)
		loss1 := Sum(Mul(GroupedAttention(q1, k1, v1, groups, scale), w))
		loss1.Backward()
		loss2 := Sum(Mul(denseTreeAttention(q2, k2, v2, groups, scale), w))
		loss2.Backward()
		for name, pair := range map[string][2]*Tensor{"q": {q1, q2}, "k": {k1, k2}, "v": {v1, v2}} {
			for i := range pair[0].Grad {
				if math.Abs(pair[0].Grad[i]-pair[1].Grad[i]) > 1e-9 {
					t.Fatalf("trial %d d%s[%d]: grouped %g dense %g", trial, name, i, pair[0].Grad[i], pair[1].Grad[i])
				}
			}
		}
	}
}
