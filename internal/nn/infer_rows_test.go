package nn

import (
	"math"
	"math/rand"
	"testing"

	"vmr2l/internal/tensor"
)

func assertBitsNN(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], w)
		}
	}
}

// mutateRows overwrites the selected rows of x with fresh random values and
// returns the row ids.
func mutateRows(rng *rand.Rand, x *tensor.Tensor, frac float64) []int {
	var rows []int
	for i := 0; i < x.Rows; i++ {
		if rng.Float64() < frac {
			rows = append(rows, i)
			for j := 0; j < x.Cols; j++ {
				x.Data[i*x.Cols+j] = rng.NormFloat64()
			}
		}
	}
	return rows
}

// TestMLPInferRowsBitParity drives cached-MLP patches against full recompute
// in float and int8 across many mutation steps.
func TestMLPInferRowsBitParity(t *testing.T) {
	for _, quant := range []bool{false, true} {
		rng := rand.New(rand.NewSource(31))
		p := NewParams()
		m := NewMLP(p, "m", rng, 16, 32, 24)
		if quant {
			if p.QuantizeLinears(nil) == 0 {
				t.Fatal("no layers quantized")
			}
		}
		ar := &tensor.Arena{}
		x := tensor.Randn(rng, 40, 16, 1)
		var c MLPCache
		ar.Reset()
		m.InferInto(ar, &c, x)
		for step := 0; step < 25; step++ {
			rows := mutateRows(rng, x, 0.2)
			ar.Reset()
			m.InferRows(ar, &c, x, rows)
			want := m.Infer(ar, x)
			assertBitsNN(t, "MLP out", c.Out, want)
		}
	}
}

// TestInferTreeRowsBitParity drives cached tree-attention patches against
// full recompute, float and int8, one and two heads, with dirty rows both
// inside and outside groups.
func TestInferTreeRowsBitParity(t *testing.T) {
	for _, quant := range []bool{false, true} {
		for _, heads := range []int{1, 2} {
			rng := rand.New(rand.NewSource(int64(41 + heads)))
			p := NewParams()
			a := NewMultiHeadAttention(p, "a", rng, 16, heads)
			if quant {
				if p.QuantizeLinears(nil) == 0 {
					t.Fatal("no layers quantized")
				}
			}
			n := 60
			x := tensor.Randn(rng, n, 16, 1)
			// Disjoint groups over ~80% of the rows; the rest belong to none.
			perm := rng.Perm(n)
			var groups [][]int
			for at := 0; at < 4*n/5; {
				s := 1 + rng.Intn(6)
				if at+s > 4*n/5 {
					s = 4*n/5 - at
				}
				groups = append(groups, perm[at:at+s])
				at += s
			}
			groupOf := make([]int, n)
			for i := range groupOf {
				groupOf[i] = -1
			}
			for g, rowsOf := range groups {
				for _, r := range rowsOf {
					groupOf[r] = g
				}
			}
			ar := &tensor.Arena{}
			var c TreeCache
			ar.Reset()
			a.InferTreeInto(ar, &c, x, groups)
			for step := 0; step < 25; step++ {
				dirtyRows := mutateRows(rng, x, 0.15)
				inGroup := map[int]bool{}
				for _, r := range dirtyRows {
					if g := groupOf[r]; g >= 0 {
						inGroup[g] = true
					}
				}
				var dirtyGroups [][]int
				var groupRows []int
				for g := range groups {
					if inGroup[g] {
						dirtyGroups = append(dirtyGroups, groups[g])
						groupRows = append(groupRows, groups[g]...)
					}
				}
				ar.Reset()
				a.InferTreeRows(ar, &c, x, dirtyRows, dirtyGroups, groupRows)
				want := a.InferTree(ar, x, groups)
				assertBitsNN(t, "tree out", c.Out, want)
			}
		}
	}
}

// TestInferSegAndProbRowMatchOps pins the fused segment attention and the
// on-demand probability row against the op-by-op composition they replace —
// per head and segment Softmax(Scale(MatMulT(q_b, k_b))) times v_b, heads
// side by side through Wo, probabilities averaged over heads — single- and
// multi-head, float and int8, on a ragged layout with empty segments.
// Float64bits-equal: the composition materialises every m×n matrix, the
// inference path none, and no bit may notice.
func TestInferSegAndProbRowMatchOps(t *testing.T) {
	qOff := []int{0, 7, 7, 10, 31}
	kvOff := []int{0, 5, 9, 9, 22}
	nSeg := len(qOff) - 1
	for _, heads := range []int{1, 2} {
		for _, quant := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(40 + heads)))
			p := NewParams()
			a := NewMultiHeadAttention(p, "a", rng, 16, heads)
			if quant && p.QuantizeLinears(nil) == 0 {
				t.Fatal("no layers quantized")
			}
			q := tensor.Randn(rng, qOff[nSeg], 16, 1)
			kv := tensor.Randn(rng, kvOff[nSeg], 16, 1)
			ar, ref := &tensor.Arena{}, &tensor.Arena{}
			got := a.InferSeg(ar, q, kv, qOff, kvOff)

			qq8, qkv8 := a.quantInputs(ref, q, kv)
			scale := 1 / math.Sqrt(float64(a.headDim))
			concat := tensor.New(q.Rows, 16)
			mean := make([]*tensor.Tensor, nSeg)
			for h := range a.Wq {
				qq := a.Wq[h].inferPre(ref, q, qq8)
				kk := a.Wk[h].inferPre(ref, kv, qkv8)
				vv := a.Wv[h].inferPre(ref, kv, qkv8)
				for b := 0; b < nSeg; b++ {
					kb, vb := ref.Rows(kk, kvOff[b], kvOff[b+1]), ref.Rows(vv, kvOff[b], kvOff[b+1])
					pr := ref.Softmax(ref.Scale(ref.MatMulT(ref.Rows(qq, qOff[b], qOff[b+1]), kb), scale))
					head := ref.MatMul(pr, vb)
					for r := 0; r < head.Rows; r++ {
						copy(concat.Data[(qOff[b]+r)*16+h*a.headDim:], head.Data[r*a.headDim:(r+1)*a.headDim])
					}
					if h == 0 {
						mean[b] = pr
					} else {
						mean[b] = ref.Add(mean[b], pr)
					}
				}
			}
			assertBitsNN(t, "InferSeg", got, a.Wo.Infer(ref, concat))
			for b := 0; b < nSeg; b++ {
				if heads > 1 {
					mean[b] = ref.Scale(mean[b], 1/float64(heads))
				}
				for r := qOff[b]; r < qOff[b+1]; r++ {
					row := a.ProbRow(ar, q, kv, r, kvOff[b], kvOff[b+1])
					assertBitsNN(t, "ProbRow", row, ref.Rows(mean[b], r-qOff[b], r-qOff[b]+1))
				}
			}
		}
	}
}
