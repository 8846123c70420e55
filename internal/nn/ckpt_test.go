package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"

	"vmr2l/internal/tensor"
)

// buildCKPTTestParams builds a parameter set exercising every tensor kind
// the checkpoint format must carry: MLP weights above and below the
// quantization eligibility floor, multi-head attention (per-head projections
// of out=4 stay float even when quantized), layer norm vectors, and a tiny
// head.
func buildCKPTTestParams(seed int64) *Params {
	rng := rand.New(rand.NewSource(seed))
	p := NewParams()
	NewMLP(p, "embed", rng, 14, 16, 8)
	NewMultiHeadAttention(p, "att", rng, 8, 2)
	NewLayerNorm(p, "ln", 8)
	NewLinear(p, "head", rng, 8, 1)
	return p
}

func TestCKPTRoundTripBitIdentical(t *testing.T) {
	p1 := buildCKPTTestParams(1)
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	p2 := buildCKPTTestParams(99) // different init, same shapes
	if err := p2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, name := range p1.Names() {
		a, b := p1.Get(name), p2.Get(name)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("%s[%d] differs after f64 round trip: %v vs %v", name, i, a.Data[i], b.Data[i])
			}
		}
	}
	// Re-saving the loaded params must reproduce the stream byte for byte.
	var buf2 bytes.Buffer
	if err := p2.SaveCKPT(&buf2, "f64"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-saved checkpoint differs byte-wise from the original")
	}
}

func TestCKPTF32RoundTripClose(t *testing.T) {
	p1 := buildCKPTTestParams(2)
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f32"); err != nil {
		t.Fatal(err)
	}
	p2 := buildCKPTTestParams(99)
	if err := p2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, name := range p1.Names() {
		a, b := p1.Get(name), p2.Get(name)
		for i := range a.Data {
			if want := float64(float32(a.Data[i])); b.Data[i] != want {
				t.Fatalf("%s[%d]: f32 round trip %v, want %v", name, i, b.Data[i], want)
			}
		}
	}
	if err := p1.SaveCKPT(&bytes.Buffer{}, "f16"); err == nil {
		t.Fatal("unsupported dtype accepted")
	}
}

func TestCKPTInt8RoundTrip(t *testing.T) {
	p1 := buildCKPTTestParams(3)
	if p1.QuantizeLinears(nil) == 0 {
		t.Fatal("no layers quantized")
	}
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	p2 := buildCKPTTestParams(99)
	if err := p2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	want := p1.QuantizedLinears()
	got := p2.QuantizedLinears()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("quantized layers after load: %v, want %v", got, want)
	}
	for _, name := range want {
		q1, q2 := p1.Linear(name).Q, p2.Linear(name).Q
		if !bytes.Equal(int8Bytes(q1.Q), int8Bytes(q2.Q)) {
			t.Fatalf("%s: int8 values differ after round trip", name)
		}
		for i := range q1.Scale {
			if q1.Scale[i] != q2.Scale[i] {
				t.Fatalf("%s: scale[%d] differs after round trip", name, i)
			}
		}
		// The float weight restores to the dequantized values.
		deq := q2.Dequantize()
		w := p2.Linear(name).W
		for i := range w.Data {
			if w.Data[i] != deq.Data[i] {
				t.Fatalf("%s: W not dequantized form after int8 load", name)
			}
		}
	}
	// The quantized layers serve bit-identically before and after the trip.
	ar := &tensor.Arena{}
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 5, 14, 1)
	l1, l2 := p1.Linear("embed.in"), p2.Linear("embed.in")
	o1 := l1.Infer(ar, x)
	o2 := l2.Infer(ar, x)
	for i := range o1.Data {
		if o1.Data[i] != o2.Data[i] {
			t.Fatal("quantized layer output differs after checkpoint round trip")
		}
	}
}

func TestCKPTFloatLoadClearsStaleQuant(t *testing.T) {
	p1 := buildCKPTTestParams(4)
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f64"); err != nil { // saved before quantizing: pure float
		t.Fatal(err)
	}
	p2 := buildCKPTTestParams(99)
	p2.QuantizeLinears(nil)
	if err := p2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := len(p2.QuantizedLinears()); n != 0 {
		t.Fatalf("%d stale quantized layers survived a float load", n)
	}
}

func TestCKPTRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p1 := NewParams()
	NewLinear(p1, "l", rng, 8, 8)
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	p2 := NewParams()
	NewLinear(p2, "l", rng, 9, 8)
	err := p2.Load(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if !strings.Contains(err.Error(), `"l.w"`) {
		t.Fatalf("shape error does not name the tensor: %v", err)
	}

	// Unknown tensor in the stream.
	p3 := NewParams()
	NewLinear(p3, "other", rng, 8, 8)
	if err := p3.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("unknown tensor accepted")
	}

	// Missing parameter: stream lacks a tensor the model registers.
	p4 := NewParams()
	NewLinear(p4, "l", rng, 8, 8)
	NewLinear(p4, "extra", rng, 8, 8)
	err = p4.Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "missing parameter") {
		t.Fatalf("missing parameter not rejected: %v", err)
	}
}

func TestCKPTRejectsOutOfRangeInt8(t *testing.T) {
	p1 := buildCKPTTestParams(6)
	p1.QuantizeLinears(nil)
	var buf bytes.Buffer
	if err := p1.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	man, err := ReadCKPTManifest(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dataStart := 12 + int64(binary.LittleEndian.Uint32(raw[8:12]))
	patched := false
	for _, e := range man.Tensors {
		if e.DType == "i8" {
			raw[dataStart+e.Offset] = 127 // beyond the ±63 quantized range
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("no i8 tensor in manifest")
	}
	p2 := buildCKPTTestParams(99)
	err = p2.Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range int8 value not rejected: %v", err)
	}
}

// TestCKPTTruncatedNeverPanics cuts a valid checkpoint at every 7th byte and
// checks Load returns an error instead of panicking.
func TestCKPTTruncatedNeverPanics(t *testing.T) {
	p1 := buildCKPTTestParams(7)
	p1.QuantizeLinears(nil)
	var ckpt bytes.Buffer
	if err := p1.SaveCKPT(&ckpt, "f64"); err != nil {
		t.Fatal(err)
	}
	raw := ckpt.Bytes()
	for cut := 0; cut < len(raw); cut += 7 {
		p2 := buildCKPTTestParams(99)
		if err := p2.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
}

// legacyGobPrefix is how a checkpoint of the removed gob encoding starts (a
// gob type definition for the old checkpoint struct).
var legacyGobPrefix = []byte("\x43\xff\x81\x03\x01\x01\x0acheckpoint\x01\xff\x82\x00\x01\x04\x01\x07Version\x01\x04\x00")

// TestCKPTRejectsLegacyStream pins the one-format contract: a stream without
// the magic is rejected with an error that says how to convert it, and the
// parameters are left untouched.
func TestCKPTRejectsLegacyStream(t *testing.T) {
	p := buildCKPTTestParams(8)
	before := append([]float64(nil), p.Get("head.w").Data...)
	version := p.Version()
	err := p.Load(bytes.NewReader(legacyGobPrefix))
	if err == nil || !strings.Contains(err.Error(), "vmr2l-eval") || !strings.Contains(err.Error(), ckptMagic) {
		t.Fatalf("legacy stream: want a conversion hint naming the format, got %v", err)
	}
	for i, v := range p.Get("head.w").Data {
		if v != before[i] {
			t.Fatal("rejected stream modified parameters")
		}
	}
	if p.Version() != version {
		t.Fatal("rejected stream bumped the params version")
	}
}

func TestCKPTInspectFile(t *testing.T) {
	p := buildCKPTTestParams(9)
	p.QuantizeLinears(nil)
	dir := t.TempDir()
	ckptPath := dir + "/model.ckpt"
	if err := p.SaveCKPTFile(ckptPath, "f64"); err != nil {
		t.Fatal(err)
	}
	man, err := InspectFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Tensors) != len(p.Names()) {
		t.Fatalf("ckpt inspect: %d tensors (want %d)", len(man.Tensors), len(p.Names()))
	}
	i8 := 0
	for _, e := range man.Tensors {
		if e.DType == "i8" {
			i8++
		}
	}
	if i8 != len(p.QuantizedLinears()) {
		t.Fatalf("inspect reports %d i8 tensors, want %d", i8, len(p.QuantizedLinears()))
	}
	if _, err := InspectFile(dir + "/missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	junk := dir + "/junk"
	if err := os.WriteFile(junk, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectFile(junk); err == nil {
		t.Fatal("junk file accepted")
	}
}

// FuzzParamsLoad feeds arbitrary bytes to the loader: it must return an error
// or succeed, never panic, on a valid checkpoint, a legacy stream, and any
// corruption of them.
func FuzzParamsLoad(f *testing.F) {
	p := NewParams()
	rng := rand.New(rand.NewSource(10))
	NewLinear(p, "l", rng, 8, 8)
	p.QuantizeLinears(nil)
	var ckpt bytes.Buffer
	if err := p.SaveCKPT(&ckpt, "f64"); err != nil {
		f.Fatal(err)
	}
	f.Add(ckpt.Bytes())
	f.Add(legacyGobPrefix)
	f.Add(ckpt.Bytes()[:len(ckpt.Bytes())/2])
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	mutated := append([]byte(nil), ckpt.Bytes()...)
	for i := 20; i < len(mutated); i += 13 {
		mutated[i] ^= 0xA5
	}
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := NewParams()
		r := rand.New(rand.NewSource(11))
		NewLinear(q, "l", r, 8, 8)
		_ = q.Load(bytes.NewReader(data)) // must not panic
	})
}

func int8Bytes(q []int8) []byte {
	b := make([]byte, len(q))
	for i, v := range q {
		b[i] = byte(v)
	}
	return b
}
