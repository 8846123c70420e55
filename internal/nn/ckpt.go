package nn

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"vmr2l/internal/tensor"
)

// The checkpoint format ("ckpt"), self-describing and safetensors-style:
//
//	[8]  magic "VMR2LCK1"
//	[4]  manifest length, uint32 little-endian
//	[..] manifest, JSON (CKPTManifest)
//	[..] raw tensor data, little-endian, tightly packed in manifest order
//
// The manifest names every tensor with dtype, shape, and byte offsets into
// the data section, so a checkpoint can be inspected (see ReadCKPTManifest,
// InspectFile) without constructing the model it came from, and read from
// any language with a JSON parser. Float tensors store f64 (bit-exact round
// trip) or f32 (half the size, lossy); quantized linear weights store i8
// values plus their per-output-channel f64 scales, so a quantized model
// serves identically after export and reload. It is the only format: a
// stream without the magic is rejected (see errNotCKPT).
const ckptMagic = "VMR2LCK1"

const (
	ckptVersion = 1
	// ckptMaxManifest bounds the manifest allocation when reading untrusted
	// files; every real manifest is a few KB.
	ckptMaxManifest = 1 << 24
)

// CKPTTensor describes one tensor in a checkpoint manifest. Offsets are
// relative to the start of the data section (the byte after the manifest).
type CKPTTensor struct {
	Name  string `json:"name"`
	DType string `json:"dtype"` // "f64", "f32", or "i8"
	// Shape is [rows, cols] for float tensors. For i8 it is [out, in]:
	// quantized weights are stored channel-major (one output channel's row
	// of in values at a time), the layout the packed kernel quantizes in.
	Shape  []int `json:"shape"`
	Offset int64 `json:"offset"`
	Bytes  int64 `json:"bytes"`
	// ScaleOffset/ScaleBytes locate the per-output-channel f64 scales of an
	// i8 tensor (out values); zero for float tensors.
	ScaleOffset int64 `json:"scale_offset,omitempty"`
	ScaleBytes  int64 `json:"scale_bytes,omitempty"`
}

// CKPTManifest is the JSON header of a portable checkpoint.
type CKPTManifest struct {
	Version int          `json:"version"`
	DType   string       `json:"dtype"` // storage dtype of non-quantized tensors
	Tensors []CKPTTensor `json:"tensors"`
}

// quantizedWeightOwner returns the linear whose quantized weight is the
// parameter name ("X.w" owned by linear "X" with Q set), or nil.
func (p *Params) quantizedWeightOwner(name string) *Linear {
	if !strings.HasSuffix(name, ".w") {
		return nil
	}
	if l := p.linears[strings.TrimSuffix(name, ".w")]; l != nil && l.Q != nil {
		return l
	}
	return nil
}

// SaveCKPT writes all parameters in the portable checkpoint format. dtype
// ("f64" or "f32") selects the storage width of float tensors; linears
// carrying a quantized weight (Params.QuantizeLinears) store that weight as
// i8 values plus scales regardless of dtype. f64 is the only bit-exact
// round trip.
func (p *Params) SaveCKPT(w io.Writer, dtype string) error {
	var fsize int64
	switch dtype {
	case "f64":
		fsize = 8
	case "f32":
		fsize = 4
	default:
		return fmt.Errorf("nn: unsupported checkpoint dtype %q (want f64 or f32)", dtype)
	}
	man := CKPTManifest{Version: ckptVersion, DType: dtype}
	var off int64
	for _, name := range p.Names() {
		t := p.Get(name)
		if l := p.quantizedWeightOwner(name); l != nil {
			e := CKPTTensor{
				Name: name, DType: "i8",
				Shape:  []int{l.Q.Out, l.Q.In},
				Offset: off, Bytes: int64(l.Q.Out) * int64(l.Q.In),
			}
			e.ScaleOffset = e.Offset + e.Bytes
			e.ScaleBytes = int64(l.Q.Out) * 8
			off = e.ScaleOffset + e.ScaleBytes
			man.Tensors = append(man.Tensors, e)
			continue
		}
		e := CKPTTensor{
			Name: name, DType: dtype,
			Shape:  []int{t.Rows, t.Cols},
			Offset: off, Bytes: int64(len(t.Data)) * fsize,
		}
		off += e.Bytes
		man.Tensors = append(man.Tensors, e)
	}
	mj, err := json.Marshal(&man)
	if err != nil {
		return fmt.Errorf("nn: encode checkpoint manifest: %w", err)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(ckptMagic)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(mj)))
	bw.Write(lenBuf[:])
	bw.Write(mj)
	var scratch [8]byte
	for _, e := range man.Tensors {
		if e.DType == "i8" {
			l := p.quantizedWeightOwner(e.Name)
			for _, q := range l.Q.Q {
				bw.WriteByte(byte(q))
			}
			for _, s := range l.Q.Scale {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(s))
				bw.Write(scratch[:])
			}
			continue
		}
		for _, v := range p.Get(e.Name).Data {
			if dtype == "f32" {
				binary.LittleEndian.PutUint32(scratch[:4], math.Float32bits(float32(v)))
				bw.Write(scratch[:4])
			} else {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				bw.Write(scratch[:])
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nn: write checkpoint: %w", err)
	}
	return nil
}

// SaveCKPTFile writes a portable checkpoint to path.
func (p *Params) SaveCKPTFile(path, dtype string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.SaveCKPT(f, dtype); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ckptStaged holds one tensor's decoded payload between the read pass and
// the commit: params are only mutated once the whole stream has validated
// and decoded, so a corrupt tail never leaves a half-loaded model.
type ckptStaged struct {
	name string
	data []float64               // float tensors
	qw   *tensor.QuantizedWeight // i8 tensors
}

// errNotCKPT rejects a stream that does not start with the magic. Checkpoints
// written by the gob encoding this format replaced are the one legitimate
// source of such streams, so the error says how to convert them.
func errNotCKPT(got []byte) error {
	return fmt.Errorf("nn: not a %s checkpoint (starts with %q); a legacy gob checkpoint must be converted once with `vmr2l-eval -ckpt old.gob -export new.ckpt` built from the last commit that read gob", ckptMagic, got)
}

// Load restores parameters from a checkpoint stream. The manifest is
// validated against the registered parameters — every tensor must be present
// with a matching shape, unknown names are rejected — before any data is
// read, and data sizes come from the registered shapes, so a hostile
// manifest cannot drive allocation. i8 tensors restore the owning linear's
// quantized weight (serving dispatches to the int8 kernel) and set its float
// W to the dequantized values; float tensors clear any stale quantized form.
// A corrupt or truncated stream returns an error, never panics, and a
// validation failure leaves the parameters untouched.
func (p *Params) Load(r io.Reader) error {
	r = bufio.NewReader(r)
	man, err := ReadCKPTManifest(r)
	if err != nil {
		return err
	}

	// Validate the whole manifest against the registered parameters before
	// touching the data section.
	seen := make(map[string]bool, len(man.Tensors))
	var off int64
	for i := range man.Tensors {
		e := &man.Tensors[i]
		if seen[e.Name] {
			return fmt.Errorf("nn: checkpoint repeats tensor %q", e.Name)
		}
		seen[e.Name] = true
		t := p.Get(e.Name)
		if t == nil {
			return fmt.Errorf("nn: checkpoint contains unknown tensor %q", e.Name)
		}
		if len(e.Shape) != 2 {
			return fmt.Errorf("nn: checkpoint tensor %q has %d-d shape, want 2", e.Name, len(e.Shape))
		}
		if e.Offset != off {
			return fmt.Errorf("nn: checkpoint tensor %q at offset %d, want %d (data must be tightly packed)", e.Name, e.Offset, off)
		}
		switch e.DType {
		case "f64", "f32":
			if e.Shape[0] != t.Rows || e.Shape[1] != t.Cols {
				return fmt.Errorf("nn: checkpoint shape mismatch for %q: %dx%d vs %dx%d",
					e.Name, e.Shape[0], e.Shape[1], t.Rows, t.Cols)
			}
			fsize := int64(8)
			if e.DType == "f32" {
				fsize = 4
			}
			if want := int64(len(t.Data)) * fsize; e.Bytes != want {
				return fmt.Errorf("nn: checkpoint tensor %q carries %d bytes, want %d", e.Name, e.Bytes, want)
			}
			off += e.Bytes
		case "i8":
			if !strings.HasSuffix(e.Name, ".w") || p.linears[strings.TrimSuffix(e.Name, ".w")] == nil {
				return fmt.Errorf("nn: checkpoint i8 tensor %q does not name a linear weight", e.Name)
			}
			// i8 shape is [out, in]; the registered float weight is in×out.
			if e.Shape[0] != t.Cols || e.Shape[1] != t.Rows {
				return fmt.Errorf("nn: checkpoint shape mismatch for %q: i8 %dx%d vs weight %dx%d (want out=%d in=%d)",
					e.Name, e.Shape[0], e.Shape[1], t.Rows, t.Cols, t.Cols, t.Rows)
			}
			if want := int64(t.Cols) * int64(t.Rows); e.Bytes != want {
				return fmt.Errorf("nn: checkpoint tensor %q carries %d bytes, want %d", e.Name, e.Bytes, want)
			}
			if e.ScaleOffset != off+e.Bytes {
				return fmt.Errorf("nn: checkpoint tensor %q scales at offset %d, want %d", e.Name, e.ScaleOffset, off+e.Bytes)
			}
			if want := int64(t.Cols) * 8; e.ScaleBytes != want {
				return fmt.Errorf("nn: checkpoint tensor %q carries %d scale bytes, want %d", e.Name, e.ScaleBytes, want)
			}
			off = e.ScaleOffset + e.ScaleBytes
		default:
			return fmt.Errorf("nn: checkpoint tensor %q has unsupported dtype %q", e.Name, e.DType)
		}
	}
	for _, name := range p.Names() {
		if !seen[name] {
			return fmt.Errorf("nn: checkpoint missing parameter %q", name)
		}
	}

	// Read the data section in manifest order, staging decoded payloads.
	staged := make([]ckptStaged, 0, len(man.Tensors))
	var scratch [8]byte
	for i := range man.Tensors {
		e := &man.Tensors[i]
		t := p.Get(e.Name)
		switch e.DType {
		case "f64":
			data := make([]float64, len(t.Data))
			for j := range data {
				if _, err := io.ReadFull(r, scratch[:]); err != nil {
					return fmt.Errorf("nn: read checkpoint tensor %q: %w", e.Name, err)
				}
				data[j] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
			}
			staged = append(staged, ckptStaged{name: e.Name, data: data})
		case "f32":
			data := make([]float64, len(t.Data))
			for j := range data {
				if _, err := io.ReadFull(r, scratch[:4]); err != nil {
					return fmt.Errorf("nn: read checkpoint tensor %q: %w", e.Name, err)
				}
				data[j] = float64(math.Float32frombits(binary.LittleEndian.Uint32(scratch[:4])))
			}
			staged = append(staged, ckptStaged{name: e.Name, data: data})
		case "i8":
			out, in := t.Cols, t.Rows
			raw := make([]byte, out*in)
			if _, err := io.ReadFull(r, raw); err != nil {
				return fmt.Errorf("nn: read checkpoint tensor %q: %w", e.Name, err)
			}
			q := make([]int8, len(raw))
			for j, b := range raw {
				q[j] = int8(b)
			}
			scale := make([]float64, out)
			for j := range scale {
				if _, err := io.ReadFull(r, scratch[:]); err != nil {
					return fmt.Errorf("nn: read checkpoint tensor %q scales: %w", e.Name, err)
				}
				scale[j] = math.Float64frombits(binary.LittleEndian.Uint64(scratch[:]))
			}
			qw, err := tensor.NewQuantizedWeight(in, out, q, scale)
			if err != nil {
				return fmt.Errorf("nn: checkpoint tensor %q: %w", e.Name, err)
			}
			staged = append(staged, ckptStaged{name: e.Name, qw: qw})
		}
	}

	// Commit. Quantized forms not re-established by this checkpoint are
	// stale (the weights underneath them just changed) and are dropped.
	for _, l := range p.linears {
		l.Q = nil
	}
	for _, s := range staged {
		t := p.Get(s.name)
		if s.qw != nil {
			l := p.linears[strings.TrimSuffix(s.name, ".w")]
			l.Q = s.qw
			copy(t.Data, s.qw.Dequantize().Data)
			continue
		}
		copy(t.Data, s.data)
	}
	p.version++ // new weights: invalidate version-keyed inference caches
	return nil
}

// ReadCKPTManifest reads just the manifest of a portable checkpoint stream,
// without needing the model it belongs to. Offsets in the result refer to
// the (unread) data section.
func ReadCKPTManifest(r io.Reader) (*CKPTManifest, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint header: %w", err)
	}
	if string(hdr[:8]) != ckptMagic {
		return nil, errNotCKPT(hdr[:8])
	}
	mlen := binary.LittleEndian.Uint32(hdr[8:12])
	if mlen == 0 || mlen > ckptMaxManifest {
		return nil, fmt.Errorf("nn: checkpoint manifest length %d out of range", mlen)
	}
	mj := make([]byte, mlen)
	if _, err := io.ReadFull(r, mj); err != nil {
		return nil, fmt.Errorf("nn: read checkpoint manifest: %w", err)
	}
	var man CKPTManifest
	if err := json.Unmarshal(mj, &man); err != nil {
		return nil, fmt.Errorf("nn: decode checkpoint manifest: %w", err)
	}
	if man.Version != ckptVersion {
		return nil, fmt.Errorf("nn: unsupported checkpoint version %d", man.Version)
	}
	return &man, nil
}

// LoadFile restores a checkpoint from path.
func (p *Params) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Load(f)
}

// InspectFile reads a checkpoint file's manifest without a model
// (vmr2l-server doctor).
func InspectFile(path string) (*CKPTManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCKPTManifest(bufio.NewReader(f))
}
