// Package policy implements the VMR2L agent: the shared PM/VM embedding
// networks, the sparse tree-local attention feature extractor (paper Fig. 8),
// the two-stage VM and PM actors (Fig. 6-7), and the critic. The ablation
// variants of the paper's evaluation — vanilla attention, no attention,
// penalty-based and full-mask action spaces, Decima-style PM subsampling,
// and the NeuPlan-style hybrid — are configuration switches so every learned
// baseline shares one training stack.
//
// There are three forwards and no more. Model.forward is the autograd
// graph PPO differentiates, and the executable specification of the network.
// Model.ServeWave is the one graph-free implementation derived from it: a
// segmented arena forward over any number of environments, with one set of
// heads and one sampler; Infer, Act and Probabilities are waves of one. The
// step cache (InferCtx.SetIncremental, incr.go) is a front end to that same
// wave: it keeps one environment's embeddings across Infer calls, patches
// the rows the cluster's dirty journal names, and hands them to the wave's
// block loop, heads and sampler as a one-segment wave — bit-identical to a
// full recompute. Property tests compare the wave and the step cache to the
// specification, not to each other.
package policy

import (
	"fmt"
	"math/rand"
	"strings"

	"vmr2l/internal/cluster"
	"vmr2l/internal/nn"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// ExtractorMode selects the feature-extraction architecture (Fig. 10).
type ExtractorMode int

// Extractor variants.
const (
	// SparseAttention is the full VMR2L extractor: tree-local attention,
	// then PM/VM self-attention, then VM→PM cross-attention per block.
	SparseAttention ExtractorMode = iota
	// VanillaAttention drops the tree-local stage (shared embeddings and
	// the original encoder-decoder transformer only).
	VanillaAttention
	// NoAttention is the MLP ablation: per-machine embeddings with no
	// relational stage at all. (The paper's MLP concatenates all machines
	// into one vector, which cannot accept variable machine counts; the
	// shared-MLP variant here is the closest input-size-agnostic analog and
	// fails the same way: no relational information. See DESIGN.md.)
	NoAttention
)

// ActionMode selects how the (VM, PM) action is produced (Fig. 13).
type ActionMode int

// Action-space variants.
const (
	// TwoStage is VMR2L's decomposition: VM actor, then masked PM actor.
	TwoStage ActionMode = iota
	// Penalty samples both stages unmasked; illegal actions cost -5.
	Penalty
	// FullMask scores all M×N pairs jointly with a full legality mask.
	FullMask
)

// Config parameterizes a model. The parameter count is independent of the
// numbers of VMs and PMs (paper section 4).
type Config struct {
	DModel int // embedding width
	Hidden int // MLP hidden width
	Blocks int // attention blocks
	// Heads is the attention head count (0 or 1 = single-head).
	Heads     int
	Extractor ExtractorMode
	Action    ActionMode
	// PMSubset, when > 0, restricts stage 2 to that many randomly sampled
	// PMs (the Decima-style baseline of section 5.1).
	PMSubset int
	Seed     int64
}

// DefaultConfig is sized for the scaled-down experiments: ~2 blocks of
// width 32, a few thousand parameters.
func DefaultConfig() Config {
	return Config{DModel: 32, Hidden: 64, Blocks: 2, Extractor: SparseAttention, Action: TwoStage}
}

// block is one attention block of Fig. 8.
type block struct {
	tree   *nn.Attention // stage 1: sparse local attention within PM trees
	pmSelf *nn.Attention // stage 2a
	vmSelf *nn.Attention // stage 2b
	cross  *nn.Attention // stage 3: VM -> PM
	pmFF   *nn.MLP
	vmFF   *nn.MLP
	pmLN   *nn.LayerNorm
	vmLN   *nn.LayerNorm
}

// Model is the VMR2L actor-critic network.
type Model struct {
	Cfg    Config
	Params *nn.Params

	pmEmbed *nn.MLP
	vmEmbed *nn.MLP
	blocks  []*block
	vmHead  *nn.Linear
	// pmMerge scores a PM from [pmE, broadcast selected-VM embedding,
	// stage-3 attention score] (paper section 3.3, PM actor).
	pmMerge *nn.MLP
	critic  *nn.MLP
}

// New builds a model with freshly initialized parameters.
func New(cfg Config) *Model {
	if cfg.DModel == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Heads < 1 {
		cfg.Heads = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := nn.NewParams()
	m := &Model{Cfg: cfg, Params: p}
	d, h := cfg.DModel, cfg.Hidden
	m.pmEmbed = nn.NewMLP(p, "pm_embed", rng, sim.PMFeatDim, h, d)
	m.vmEmbed = nn.NewMLP(p, "vm_embed", rng, sim.VMFeatDim, h, d)
	for b := 0; b < cfg.Blocks; b++ {
		name := fmt.Sprintf("block%d", b)
		blk := &block{
			pmFF: nn.NewMLP(p, name+".pm_ff", rng, d, h, d),
			vmFF: nn.NewMLP(p, name+".vm_ff", rng, d, h, d),
			pmLN: nn.NewLayerNorm(p, name+".pm_ln", d),
			vmLN: nn.NewLayerNorm(p, name+".vm_ln", d),
		}
		if cfg.Extractor != NoAttention {
			blk.pmSelf = nn.NewMultiHeadAttention(p, name+".pm_self", rng, d, cfg.Heads)
			blk.vmSelf = nn.NewMultiHeadAttention(p, name+".vm_self", rng, d, cfg.Heads)
			blk.cross = nn.NewMultiHeadAttention(p, name+".cross", rng, d, cfg.Heads)
		}
		if cfg.Extractor == SparseAttention {
			blk.tree = nn.NewMultiHeadAttention(p, name+".tree", rng, d, cfg.Heads)
		}
		m.blocks = append(m.blocks, blk)
	}
	m.vmHead = nn.NewLinear(p, "vm_head", rng, d, 1)
	m.pmMerge = nn.NewMLP(p, "pm_merge", rng, 2*d+1, h, 1)
	m.critic = nn.NewMLP(p, "critic", rng, 2*d, h, 1)
	return m
}

// Quantize converts every eligible Linear of the model to the int8
// inference path (per-output-channel symmetric scales, packed-lane kernels)
// and returns how many layers were converted. The critic is skipped — value
// estimates drive PPO's advantage baseline and stay full precision — and
// tiny heads (vm_head, pm_merge output) fall below the eligibility floor.
// Float weights are untouched: Forward keeps full precision, and Infer
// dispatches per layer, so only the actor's GEMMs change.
func (m *Model) Quantize() int {
	return m.Params.QuantizeLinears(func(name string) bool {
		return strings.HasPrefix(name, "critic")
	})
}

// Quantized reports whether any layer currently serves through the int8
// kernels.
func (m *Model) Quantized() bool { return len(m.Params.QuantizedLinears()) > 0 }

// forwardOut carries the extractor outputs.
type forwardOut struct {
	pmE *tensor.Tensor // N×d
	vmE *tensor.Tensor // M×d
	// crossProbs is the stage-3 VM→PM attention of the last block (M×N);
	// nil in NoAttention mode.
	crossProbs *tensor.Tensor
}

// groupBuf builds the tree partition of a wave's interleaved
// [PM_0; VM_0; PM_1; VM_1; …] row space: per segment, one group per PM (the
// PM row plus its hosted VM rows, ascending) and a singleton group per
// unplaced VM, shifted by the segment's row base. Feeding the concatenation
// to one GroupedAttention call computes every segment's tree attention
// block-diagonally in a single pass. A long-lived groupBuf (InferCtx)
// reuses its buffers across builds; holders of a previous build's result
// must not reuse the same groupBuf until that result is dead.
type groupBuf struct {
	groups [][]int
	flat   []int
	counts []int
}

// build fills the partition for the given segments. The returned slice is
// valid until the next build.
func (gb *groupBuf) build(feats []*sim.Features) [][]int {
	totRows := 0
	for _, f := range feats {
		totRows += len(f.PM) + len(f.HostPM)
	}
	if cap(gb.flat) < totRows {
		gb.flat = make([]int, totRows)
	} else {
		gb.flat = gb.flat[:totRows]
	}
	gb.groups = gb.groups[:0]
	off := 0
	for _, f := range feats {
		host := f.HostPM
		nPM := len(f.PM)
		base := off
		if cap(gb.counts) < nPM {
			gb.counts = make([]int, nPM)
		} else {
			gb.counts = gb.counts[:nPM]
		}
		for t := 0; t < nPM; t++ {
			gb.counts[t] = 1 // the PM row itself
		}
		for _, h := range host {
			if h >= 0 {
				gb.counts[h]++
			}
		}
		// Trees back to back; counts[t] becomes tree t's write cursor. Rows
		// stay ascending within each group (PM index first, hosted VMs in VM
		// order).
		for t := 0; t < nPM; t++ {
			size := gb.counts[t]
			gb.groups = append(gb.groups, gb.flat[off:off+size:off+size])
			gb.flat[off] = base + t
			gb.counts[t] = off + 1
			off += size
		}
		for v, h := range host {
			if h >= 0 {
				gb.flat[gb.counts[h]] = base + nPM + v
				gb.counts[h]++
			}
		}
		// Singleton groups for unplaced VMs.
		for v, h := range host {
			if h < 0 {
				gb.flat[off] = base + nPM + v
				gb.groups = append(gb.groups, gb.flat[off:off+1:off+1])
				off++
			}
		}
	}
	return gb.groups
}

// forward runs the feature extractor on one state, building the autograd
// graph: the specification the wave forward is derived from. The graph's
// storage belongs to pool (nil = heap).
func (m *Model) forward(pool *tensor.GraphPool, f *sim.Features) *forwardOut {
	pmE := m.pmEmbed.Forward(pool.FromRows(f.PM))
	vmE := m.vmEmbed.Forward(pool.FromRows(f.VM))
	out := &forwardOut{}
	numPM := len(f.PM)
	// The groupBuf must be freshly allocated here: GroupedAttention's
	// backward closure retains the groups until loss.Backward(), long after
	// this forward returns, so a pooled/reused buffer would be clobbered by
	// the next transition's forward. (The wave forward reuses its InferCtx
	// buffer safely — arena ops never retain groups.)
	var groups [][]int
	if m.Cfg.Extractor == SparseAttention {
		groups = new(groupBuf).build([]*sim.Features{f})
	}
	for _, blk := range m.blocks {
		if blk.tree != nil {
			// Stage 1: tree-local attention over stacked [PM; VM] rows,
			// computed block-diagonally per PM tree.
			x := tensor.ConcatRows(pmE, vmE)
			tx := blk.tree.ForwardTree(x, groups)
			x = tensor.Add(x, tx) // residual
			pmE = tensor.GatherRows(x, seq(0, numPM))
			vmE = tensor.GatherRows(x, seq(numPM, numPM+len(f.VM)))
		}
		if blk.pmSelf != nil {
			// Stage 2: intra-set self-attention.
			pa, _ := blk.pmSelf.Forward(pmE, pmE, nil)
			pmE = tensor.Add(pmE, pa)
			va, _ := blk.vmSelf.Forward(vmE, vmE, nil)
			vmE = tensor.Add(vmE, va)
			// Stage 3: VM -> PM cross attention.
			ca, probs := blk.cross.Forward(vmE, pmE, nil)
			vmE = tensor.Add(vmE, ca)
			out.crossProbs = probs
		}
		// Dense layers + layer norm.
		pmE = blk.pmLN.Forward(tensor.Add(pmE, blk.pmFF.Forward(pmE)))
		vmE = blk.vmLN.Forward(tensor.Add(vmE, blk.vmFF.Forward(vmE)))
	}
	out.pmE, out.vmE = pmE, vmE
	return out
}

func seq(lo, hi int) []int {
	s := make([]int, hi-lo)
	for i := range s {
		s[i] = lo + i
	}
	return s
}

// vmLogits projects VM embeddings to stage-1 logits (1×M), masking illegal
// VMs with -1e9.
func (m *Model) vmLogits(out *forwardOut, mask []bool) *tensor.Tensor {
	logits := m.vmHead.Forward(out.vmE) // M×1
	row := transpose(logits)            // 1×M
	if mask != nil {
		row = tensor.MaskedFill(row, mask, -1e9)
	}
	return row
}

// pmLogits scores each PM for the selected VM (1×N): each PM row is merged
// with the selected VM's embedding and its stage-3 attention score.
func (m *Model) pmLogits(out *forwardOut, vm int, mask []bool) *tensor.Tensor {
	n := out.pmE.Rows
	sel := tensor.GatherRows(out.vmE, []int{vm}) // 1×d
	// Broadcast the selected embedding to every PM row. The constants join
	// the graph's pool: they have no parent to inherit it from.
	pool := out.pmE.Pool()
	ones := pool.New(n, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	selB := tensor.MatMul(ones, sel) // N×d
	var score *tensor.Tensor
	if out.crossProbs != nil {
		score = transpose(tensor.GatherRows(out.crossProbs, []int{vm})) // N×1
	} else {
		score = pool.New(n, 1)
	}
	merged := tensor.ConcatCols(tensor.ConcatCols(out.pmE, selB), score) // N×(2d+1)
	logits := m.pmMerge.Forward(merged)                                  // N×1
	row := transpose(logits)                                             // 1×N
	if mask != nil {
		row = tensor.MaskedFill(row, mask, -1e9)
	}
	return row
}

// value runs the critic on pooled embeddings (1×1).
func (m *Model) value(out *forwardOut) *tensor.Tensor {
	pooled := tensor.ConcatCols(tensor.MeanRows(out.pmE), tensor.MeanRows(out.vmE))
	return m.critic.Forward(pooled)
}

// transpose flips a vector tensor between n×1 and 1×n, preserving gradients
// — the logits heads use it in both directions.
func transpose(t *tensor.Tensor) *tensor.Tensor { return tensor.Transpose(t) }

// FragCores re-exported for callers assembling environments.
const FragCores = cluster.DefaultFragCores
