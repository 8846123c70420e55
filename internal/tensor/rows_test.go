package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// randTensorRows builds a rows×cols tensor of mixed-sign values with a
// sprinkle of exact zeros (the zero-skip parity edge).
func randTensorRows(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		switch rng.Intn(5) {
		case 0:
			t.Data[i] = 0
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// pickRows returns a random subset of row ids (possibly empty, unsorted).
func pickRows(rng *rand.Rand, n int) []int {
	var rows []int
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			rows = append(rows, i)
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// corruptRows scribbles NaNs over the selected rows of t so the test proves
// the patch really recomputes them (and only them).
func corruptRows(t *Tensor, rows []int) {
	for _, i := range rows {
		for j := 0; j < t.Cols; j++ {
			t.Data[i*t.Cols+j] = math.NaN()
		}
	}
}

func assertTensorBits(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v (bits %x), want %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]), w, math.Float64bits(w))
		}
	}
}

// TestLinearRowsBitParity pins the float row kernel against the full
// MatMul+AddRowInPlace path across random shapes, including shapes that
// trigger the parallel and paired-row branches of matMulInto.
func TestLinearRowsBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ar := &Arena{}
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(200)
		k := 1 + rng.Intn(48)
		n := 1 + rng.Intn(48)
		if trial%7 == 0 {
			m = 2*mmBlock + rng.Intn(128) // force the parallel fan-out path
		}
		x := randTensorRows(rng, m, k)
		w := randTensorRows(rng, k, n)
		b := randTensorRows(rng, 1, n)

		ar.Reset()
		want := ar.AddRowInPlace(ar.MatMul(x, w), b)

		cached := New(m, n)
		copy(cached.Data, want.Data)
		rows := pickRows(rng, m)
		corruptRows(cached, rows)
		ar.LinearRows(cached, x, w, b, rows)
		assertTensorBits(t, "LinearRows", cached, want)

		// nil bias = pure matmul patch.
		ar.Reset()
		wantNB := ar.MatMul(x, w)
		cachedNB := New(m, n)
		copy(cachedNB.Data, wantNB.Data)
		corruptRows(cachedNB, rows)
		ar.LinearRows(cachedNB, x, w, nil, rows)
		assertTensorBits(t, "LinearRows(nil bias)", cachedNB, wantNB)
	}
}

// TestLinearQ8RowsBitParity pins the int8 row kernel against the full
// LinearQ8 path: per-row activation quantization must round-trip identically.
func TestLinearQ8RowsBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ar := &Arena{}
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(120)
		k := 1 + rng.Intn(64)
		n := 1 + rng.Intn(48)
		x := randTensorRows(rng, m, k)
		w := randTensorRows(rng, k, n)
		b := randTensorRows(rng, 1, n)
		qw := QuantizeWeight(w)

		ar.Reset()
		want := ar.LinearQ8(x, qw, b)

		cached := New(m, n)
		copy(cached.Data, want.Data)
		rows := pickRows(rng, m)
		corruptRows(cached, rows)
		ar.LinearQ8Rows(cached, x, qw, b, rows)
		assertTensorBits(t, "LinearQ8Rows", cached, want)

		ar.Reset()
		wantNB := ar.MatMulQ8(ar.QuantizeActs(x), qw, nil)
		cachedNB := New(m, n)
		copy(cachedNB.Data, wantNB.Data)
		corruptRows(cachedNB, rows)
		ar.LinearQ8Rows(cachedNB, x, qw, nil, rows)
		assertTensorBits(t, "LinearQ8Rows(nil bias)", cachedNB, wantNB)
	}
}

// TestLayerNormAddReLURowsBitParity covers the remaining row-wise patches:
// LayerNormRows, AddRows and ReLURowsInPlace against their full kernels.
func TestLayerNormAddReLURowsBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ar := &Arena{}
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(80)
		n := 1 + rng.Intn(48)
		a := randTensorRows(rng, m, n)
		bten := randTensorRows(rng, m, n)
		gamma := randTensorRows(rng, 1, n)
		beta := randTensorRows(rng, 1, n)
		rows := pickRows(rng, m)

		ar.Reset()
		wantLN := ar.LayerNorm(a, gamma, beta, 1e-5)
		cached := New(m, n)
		copy(cached.Data, wantLN.Data)
		corruptRows(cached, rows)
		ar.LayerNormRows(cached, a, gamma, beta, 1e-5, rows)
		assertTensorBits(t, "LayerNormRows", cached, wantLN)

		ar.Reset()
		wantAdd := ar.Add(a, bten)
		cachedAdd := New(m, n)
		copy(cachedAdd.Data, wantAdd.Data)
		corruptRows(cachedAdd, rows)
		ar.AddRows(cachedAdd, a, bten, rows)
		assertTensorBits(t, "AddRows", cachedAdd, wantAdd)

		wantReLU := New(m, n)
		copy(wantReLU.Data, a.Data)
		ar.ReLUInPlace(wantReLU)
		gotReLU := New(m, n)
		copy(gotReLU.Data, a.Data)
		// Patch semantics: rectify only the selected rows of a copy whose
		// other rows were already rectified.
		copy(gotReLU.Data, wantReLU.Data)
		for _, i := range rows {
			copy(gotReLU.Data[i*n:(i+1)*n], a.Data[i*n:(i+1)*n])
		}
		ar.ReLURowsInPlace(gotReLU, rows)
		assertTensorBits(t, "ReLURowsInPlace", gotReLU, wantReLU)
	}
}

// TestGroupedAttentionRowsBitParity pins the group patch against the full
// grouped kernel: recomputing a subset of groups over identical q/k/v must
// reproduce exactly the full result's rows, both for the serial and the
// parallel full path.
func TestGroupedAttentionRowsBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ar := &Arena{}
	for trial := 0; trial < 30; trial++ {
		m := 4 + rng.Intn(200)
		d := 1 + rng.Intn(16)
		dv := 1 + rng.Intn(16)
		q := randTensorRows(rng, m, d)
		k := randTensorRows(rng, m, d)
		v := randTensorRows(rng, m, dv)
		// Random disjoint groups covering a subset of rows.
		perm := rng.Perm(m)
		var groups [][]int
		for at := 0; at < m; {
			s := 1 + rng.Intn(7)
			if at+s > m {
				s = m - at
			}
			groups = append(groups, perm[at:at+s])
			at += s
		}
		scale := 1 / math.Sqrt(float64(d))

		ar.Reset()
		want := ar.GroupedAttention(q, k, v, groups, scale)

		var dirty [][]int
		for _, g := range groups {
			if rng.Intn(2) == 0 {
				dirty = append(dirty, g)
			}
		}
		cached := New(m, dv)
		copy(cached.Data, want.Data)
		for _, g := range dirty {
			corruptRows(cached, g)
		}
		ar.GroupedAttentionRows(cached, 0, q, k, v, dirty, scale)
		assertTensorBits(t, "GroupedAttentionRows", cached, want)
	}
}
