package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// numericGrad estimates dLoss/dX[i] by central differences, where loss
// rebuilds the graph from scratch via f.
func numericGrad(x *Tensor, i int, f func() *Tensor) float64 {
	const h = 1e-6
	orig := x.Data[i]
	x.Data[i] = orig + h
	up := f().Scalar()
	x.Data[i] = orig - h
	down := f().Scalar()
	x.Data[i] = orig
	return (up - down) / (2 * h)
}

// checkGrads verifies analytic vs numeric gradients of loss(f) w.r.t. every
// listed parameter.
func checkGrads(t *testing.T, f func() *Tensor, params ...*Tensor) {
	t.Helper()
	loss := f()
	loss.Backward()
	for pi, p := range params {
		for i := range p.Data {
			want := numericGrad(p, i, f)
			got := p.Grad[i]
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want)/scale > 1e-4 {
				t.Fatalf("param %d elem %d: grad %v, numeric %v", pi, i, got, want)
			}
		}
	}
}

// fromSlice wraps row-major data (copied) into a rows×cols heap tensor.
func fromSlice(rows, cols int, data []float64) *Tensor {
	t := New(rows, cols)
	copy(t.Data, data)
	return t
}

func randParam(rng *rand.Rand, r, c int) *Tensor {
	return Randn(rng, r, c, 0.5).Param()
}

func TestGradAddSubMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 3, 4)
	checkGrads(t, func() *Tensor {
		return Mean(Mul(Add(a, b), Sub(Scale(a, 2), AddScalar(b, 0.3))))
	}, a, b)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 3, 5)
	b := randParam(rng, 5, 2)
	checkGrads(t, func() *Tensor { return Mean(MatMul(a, b)) }, a, b)
}

func TestGradMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 6, 4)
	checkGrads(t, func() *Tensor { return Mean(Exp(MatMulT(a, b))) }, a, b)
}

func TestGradAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 4, 3)
	w := randParam(rng, 3, 3)
	row := randParam(rng, 1, 3)
	checkGrads(t, func() *Tensor { return Mean(ReLU(Affine(a, w, row))) }, a, w, row)
}

func TestGradSoftmaxLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 3, 5)
	w := Randn(rng, 3, 5, 1) // fixed weights make the loss non-symmetric
	checkGrads(t, func() *Tensor { return Mean(Mul(Softmax(a), w)) }, a)
	a.ZeroGrad()
	checkGrads(t, func() *Tensor { return Mean(Mul(LogSoftmax(a), w)) }, a)
}

func TestGradMaskedSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randParam(rng, 2, 6)
	mask := []bool{true, false, true, true, false, true, false, true, true, false, true, true}
	w := Randn(rng, 2, 6, 1)
	checkGrads(t, func() *Tensor {
		return Mean(Mul(Softmax(MaskedFill(a, mask, -1e9)), w))
	}, a)
	// Masked positions get ~zero probability.
	p := Softmax(MaskedFill(a, mask, -1e9))
	for i, ok := range mask {
		if !ok && p.Data[i] > 1e-8 {
			t.Fatalf("masked position %d has probability %v", i, p.Data[i])
		}
	}
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randParam(rng, 3, 6)
	gamma := randParam(rng, 1, 6)
	beta := randParam(rng, 1, 6)
	w := Randn(rng, 3, 6, 1)
	checkGrads(t, func() *Tensor {
		return Mean(Mul(LayerNorm(a, gamma, beta, 1e-5), w))
	}, a, gamma, beta)
}

func TestGradReductionsAndGathers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randParam(rng, 5, 3)
	checkGrads(t, func() *Tensor { return Sum(GatherRows(a, []int{0, 2, 2, 4})) }, a)
	a.ZeroGrad()
	checkGrads(t, func() *Tensor { return Mean(PickPerRow(a, []int{1, 0, 2, 1, 0})) }, a)
	a.ZeroGrad()
	checkGrads(t, func() *Tensor { return Sum(MeanRows(a)) }, a)
}

func TestGradConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randParam(rng, 2, 3)
	b := randParam(rng, 2, 4)
	c := randParam(rng, 3, 3)
	w := Randn(rng, 2, 7, 1)
	checkGrads(t, func() *Tensor { return Mean(Mul(ConcatCols(a, b), w)) }, a, b)
	a.ZeroGrad()
	w2 := Randn(rng, 5, 3, 1)
	checkGrads(t, func() *Tensor { return Mean(Mul(ConcatRows(a, c), w2)) }, a, c)
}

func TestGradExpClampMin(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 3, 3)
	b := randParam(rng, 3, 3)
	checkGrads(t, func() *Tensor { return Mean(Exp(Scale(a, 0.3))) }, a)
	a.ZeroGrad()
	checkGrads(t, func() *Tensor { return Mean(Min(a, b)) }, a, b)
	a.ZeroGrad()
	// Clamp boundaries have zero grad; test only interior points by
	// clamping far outside the data range.
	checkGrads(t, func() *Tensor { return Mean(Clamp(a, -100, 100)) }, a)
}

func TestClampValues(t *testing.T) {
	a := fromSlice(1, 3, []float64{-5, 0.5, 5})
	c := Clamp(a, 0, 1)
	want := []float64{0, 0.5, 1}
	for i, v := range c.Data {
		if v != want[i] {
			t.Fatalf("Clamp = %v, want %v", c.Data, want)
		}
	}
}

func TestBackwardTwiceAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randParam(rng, 2, 2)
	loss := Mean(Mul(a, a))
	loss.Backward()
	g1 := append([]float64(nil), a.Grad...)
	loss2 := Mean(Mul(a, a))
	loss2.Backward()
	for i := range g1 {
		if math.Abs(a.Grad[i]-2*g1[i]) > 1e-12 {
			t.Fatal("gradients should accumulate across backward passes")
		}
	}
	a.ZeroGrad()
	for _, g := range a.Grad {
		if g != 0 {
			t.Fatal("ZeroGrad failed")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Randn(rng, 4, 7, 3)
		s := Softmax(a)
		for i := 0; i < s.Rows; i++ {
			sum := 0.0
			for j := 0; j < s.Cols; j++ {
				sum += s.Data[i*s.Cols+j]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxFullyMaskedRowIsUniform(t *testing.T) {
	a := fromSlice(1, 3, []float64{1, 2, 3})
	mask := []bool{false, false, false}
	s := Softmax(MaskedFill(a, mask, -1e9))
	for _, v := range s.Data {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("fully masked softmax = %v", s.Data)
		}
	}
}

func TestShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	a := New(2, 3)
	b := New(3, 2)
	expectPanic("Add", func() { Add(a, b) })
	expectPanic("MatMul", func() { MatMul(a, New(2, 2)) })
	expectPanic("MatMulT", func() { MatMulT(a, New(2, 2)) })
	expectPanic("Scalar", func() { a.Scalar() })
	expectPanic("Backward", func() { a.Param(); Mul(a, a).Backward() })
	expectPanic("GatherRows", func() { GatherRows(a, []int{5}) })
	expectPanic("PickPerRow", func() { PickPerRow(a, []int{0}) })
	expectPanic("MaskedFill", func() { MaskedFill(a, []bool{true}, 0) })
}

func TestGradTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 2, 4)
	w := Randn(rng, 4, 2, 1)
	checkGrads(t, func() *Tensor { return Mean(Mul(Transpose(a), w)) }, a)
	b := fromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	bt := Transpose(b)
	if bt.Rows != 3 || bt.Cols != 2 || bt.Data[0*2+1] != 4 || bt.Data[2*2+0] != 3 {
		t.Fatalf("Transpose wrong: %+v", bt.Data)
	}
}

func TestGradReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randParam(rng, 2, 6)
	w := Randn(rng, 3, 4, 1)
	checkGrads(t, func() *Tensor { return Mean(Mul(Reshape(a, 3, 4), w)) }, a)
}
