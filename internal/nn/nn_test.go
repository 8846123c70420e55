package nn

import (
	"math"
	"math/rand"
	"testing"

	"vmr2l/internal/tensor"
)

func TestParamsRegistry(t *testing.T) {
	p := NewParams()
	a := p.Register("b", tensor.New(2, 2))
	p.Register("a", tensor.New(1, 3))
	if !a.RequiresGrad() {
		t.Fatal("Register must mark parameters trainable")
	}
	names := p.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if p.Count() != 7 {
		t.Fatalf("Count = %d, want 7", p.Count())
	}
	if p.Get("a") == nil || p.Get("zzz") != nil {
		t.Fatal("Get misbehaves")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register must panic")
		}
	}()
	p.Register("a", tensor.New(1, 1))
}

func TestGradNormAndClip(t *testing.T) {
	p := NewParams()
	a := p.Register("a", tensor.FromSlice(1, 2, []float64{0, 0}))
	a.Grad[0], a.Grad[1] = 3, 4
	if got := p.GradNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("GradNorm = %v, want 5", got)
	}
	p.ClipGrad(1)
	if got := p.GradNorm(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("clipped norm = %v, want 1", got)
	}
	p.ZeroGrad()
	if p.GradNorm() != 0 {
		t.Fatal("ZeroGrad failed")
	}
	p.ClipGrad(1) // zero-norm no-op must not divide by zero
}

func TestLinearRegressionConverges(t *testing.T) {
	// y = 2x1 - 3x2 + 1, learnable by a single linear layer.
	rng := rand.New(rand.NewSource(1))
	p := NewParams()
	lin := NewLinear(p, "lin", rng, 2, 1)
	opt := NewAdam(p, 0.05)
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		x := tensor.Randn(rng, 16, 2, 1)
		y := tensor.New(16, 1)
		for i := 0; i < 16; i++ {
			y.Data[i] = 2*x.At(i, 0) - 3*x.At(i, 1) + 1
		}
		p.ZeroGrad()
		diff := tensor.Sub(lin.Forward(x), y)
		l := tensor.Mean(tensor.Mul(diff, diff))
		l.Backward()
		opt.Step()
		loss = l.Scalar()
	}
	if loss > 1e-3 {
		t.Fatalf("regression did not converge: loss %v", loss)
	}
	if math.Abs(lin.W.Data[0]-2) > 0.05 || math.Abs(lin.W.Data[1]+3) > 0.05 || math.Abs(lin.B.Data[0]-1) > 0.05 {
		t.Fatalf("learned wrong weights: W=%v B=%v", lin.W.Data, lin.B.Data)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewParams()
	mlp := NewMLP(p, "mlp", rng, 2, 16, 1)
	opt := NewAdam(p, 0.02)
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := tensor.FromSlice(4, 1, []float64{0, 1, 1, 0})
	var loss float64
	for epoch := 0; epoch < 800; epoch++ {
		p.ZeroGrad()
		diff := tensor.Sub(mlp.Forward(x), y)
		l := tensor.Mean(tensor.Mul(diff, diff))
		l.Backward()
		opt.Step()
		loss = l.Scalar()
	}
	if loss > 0.01 {
		t.Fatalf("XOR did not converge: loss %v", loss)
	}
}

func TestLayerNormOutputStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewParams()
	ln := NewLayerNorm(p, "ln", 8)
	x := tensor.Randn(rng, 4, 8, 5)
	out := ln.Forward(x)
	for i := 0; i < out.Rows; i++ {
		mean, varr := 0.0, 0.0
		for j := 0; j < out.Cols; j++ {
			mean += out.At(i, j)
		}
		mean /= float64(out.Cols)
		for j := 0; j < out.Cols; j++ {
			d := out.At(i, j) - mean
			varr += d * d
		}
		varr /= float64(out.Cols)
		if math.Abs(mean) > 1e-9 || math.Abs(varr-1) > 1e-3 {
			t.Fatalf("row %d: mean %v var %v", i, mean, varr)
		}
	}
}

func TestAttentionShapesAndMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewParams()
	att := NewAttention(p, "att", rng, 8)
	q := tensor.Randn(rng, 3, 8, 1)
	kv := tensor.Randn(rng, 5, 8, 1)
	mask := make([]bool, 3*5)
	for i := range mask {
		mask[i] = true
	}
	// Forbid query 0 from attending to keys 1..4: it must attend only to 0.
	for j := 1; j < 5; j++ {
		mask[0*5+j] = false
	}
	out, probs := att.Forward(q, kv, mask)
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("out shape %dx%d", out.Rows, out.Cols)
	}
	if probs.Rows != 3 || probs.Cols != 5 {
		t.Fatalf("probs shape %dx%d", probs.Rows, probs.Cols)
	}
	if math.Abs(probs.At(0, 0)-1) > 1e-6 {
		t.Fatalf("masked attention row = %v", probs.Data[:5])
	}
	// Unmasked rows sum to one.
	sum := 0.0
	for j := 0; j < 5; j++ {
		sum += probs.At(1, j)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attention row sums to %v", sum)
	}
}

func TestAttentionGradFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParams()
	att := NewAttention(p, "att", rng, 4)
	q := tensor.Randn(rng, 2, 4, 1)
	kv := tensor.Randn(rng, 3, 4, 1)
	out, _ := att.Forward(q, kv, nil)
	tensor.Mean(out).Backward()
	if p.GradNorm() == 0 {
		t.Fatal("no gradient reached attention parameters")
	}
}

func TestCheckpointFileHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewParams()
	NewLinear(p, "l", rng, 2, 2)
	path := t.TempDir() + "/ck.ckpt"
	if err := p.SaveCKPTFile(path, "f64"); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := p.LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestAdamDecreasesQuadratic(t *testing.T) {
	p := NewParams()
	x := p.Register("x", tensor.FromSlice(1, 1, []float64{5}))
	opt := NewAdam(p, 0.1)
	for i := 0; i < 200; i++ {
		p.ZeroGrad()
		loss := tensor.Mean(tensor.Mul(x, x))
		loss.Backward()
		opt.Step()
	}
	if math.Abs(x.Data[0]) > 0.05 {
		t.Fatalf("Adam failed to minimize x^2: x = %v", x.Data[0])
	}
}

func TestFreezeSkipsUpdates(t *testing.T) {
	p := NewParams()
	a := p.Register("trunk.w", tensor.FromSlice(1, 1, []float64{1}))
	b := p.Register("head.w", tensor.FromSlice(1, 1, []float64{1}))
	if n := p.Freeze("trunk"); n != 1 {
		t.Fatalf("Freeze affected %d params, want 1", n)
	}
	if !p.IsFrozen("trunk.w") || p.IsFrozen("head.w") {
		t.Fatal("frozen flags wrong")
	}
	opt := NewAdam(p, 0.1)
	for i := 0; i < 5; i++ {
		p.ZeroGrad()
		loss := tensor.Mean(tensor.Mul(tensor.Add(a, b), tensor.Add(a, b)))
		loss.Backward()
		opt.Step()
	}
	if a.Data[0] != 1 {
		t.Fatalf("frozen parameter changed: %v", a.Data[0])
	}
	if b.Data[0] == 1 {
		t.Fatal("unfrozen parameter did not change")
	}
	if n := p.Unfreeze("trunk"); n != 1 {
		t.Fatalf("Unfreeze affected %d", n)
	}
	p.ZeroGrad()
	loss := tensor.Mean(tensor.Mul(a, a))
	loss.Backward()
	opt.Step()
	if a.Data[0] == 1 {
		t.Fatal("unfrozen parameter still stuck")
	}
}

func TestMultiHeadAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewParams()
	att := NewMultiHeadAttention(p, "mha", rng, 8, 2)
	if att.Heads() != 2 {
		t.Fatalf("heads = %d", att.Heads())
	}
	q := tensor.Randn(rng, 3, 8, 1)
	kv := tensor.Randn(rng, 5, 8, 1)
	out, probs := att.Forward(q, kv, nil)
	if out.Rows != 3 || out.Cols != 8 {
		t.Fatalf("out shape %dx%d", out.Rows, out.Cols)
	}
	if probs.Rows != 3 || probs.Cols != 5 {
		t.Fatalf("probs shape %dx%d", probs.Rows, probs.Cols)
	}
	// Mean-of-heads probabilities still sum to one per row.
	for i := 0; i < 3; i++ {
		sum := 0.0
		for j := 0; j < 5; j++ {
			sum += probs.At(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d probs sum %v", i, sum)
		}
	}
	// Gradients reach all heads.
	tensor.Mean(out).Backward()
	for h := 0; h < 2; h++ {
		if normOf(att.Wq[h].W.Grad) == 0 {
			t.Fatalf("head %d got no gradient", h)
		}
	}
}

func normOf(g []float64) float64 {
	s := 0.0
	for _, v := range g {
		s += v * v
	}
	return s
}

func TestMultiHeadAttentionBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible head split must panic")
		}
	}()
	NewMultiHeadAttention(NewParams(), "x", rand.New(rand.NewSource(1)), 8, 3)
}
