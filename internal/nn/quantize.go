package nn

import (
	"sort"

	"vmr2l/internal/tensor"
)

// Weight quantization. QuantizeLinears converts eligible Linear layers to
// the int8 inference path: per-output-channel symmetric scales, packed-lane
// kernels, activations quantized dynamically per row at matmul time (see
// tensor/quant.go for the numeric scheme). The float weights W are left
// untouched — Forward (autograd) keeps full precision, and the float/int8
// FR-parity benchmark compares the same parameters before and after.

// quantMinDim is the smallest In/Out a Linear must have to be worth
// quantizing: below it the per-row activation-quantization pass costs more
// than the kernel saves (a 32×1 head's float matmul is already trivial).
const quantMinDim = 8

// QuantizeEligible reports whether a layer of the given shape benefits from
// the int8 kernel.
func QuantizeEligible(in, out int) bool { return in >= quantMinDim && out >= quantMinDim }

// QuantizeLinears quantizes every registered Linear for which
// QuantizeEligible holds and skip (optional) returns false, and returns how
// many layers were converted. Layers already quantized are re-quantized from
// their current W. Callers name what must stay float via skip — the policy
// model skips its critic so the value head is untouched.
func (p *Params) QuantizeLinears(skip func(name string) bool) int {
	n := 0
	for name, l := range p.linears {
		if !QuantizeEligible(l.W.Rows, l.W.Cols) {
			continue
		}
		if skip != nil && skip(name) {
			continue
		}
		l.Q = tensor.QuantizeWeight(l.W)
		n++
	}
	if n > 0 {
		p.version++ // inference now takes the int8 path: cached floats are stale
	}
	return n
}

// QuantizedLinears returns the sorted names of layers currently carrying a
// quantized weight.
func (p *Params) QuantizedLinears() []string {
	var names []string
	for name, l := range p.linears {
		if l.Q != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
