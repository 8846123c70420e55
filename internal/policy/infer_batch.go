package policy

import (
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// The wave forward: one graph-free forward pass for any number of
// environments. The B environments' PM rows are stacked into one (ΣnPM)×d
// matrix and their VM rows into one (ΣnVM)×d matrix, so every row-wise stage
// — the embedding MLPs, the feed-forward blocks, layer norms, residuals, and
// the actor/critic heads — runs as a single GEMM through the
// register-blocked matmul kernels. The cross-row stages (tree-local, self,
// and cross attention) are block-diagonal per environment and run on
// zero-copy row segments through the same kernels. Because every kernel
// computes each output row independently of how many other rows share the
// call, a segment's result has the same bits alone (B=1) and inside any
// ragged wave; the property tests in infer_test.go pin the wave to the
// autograd forward and each row to itself across wave compositions.

// BatchAction is one environment's decision from InferBatch.
type BatchAction struct {
	VM, PM int
	// Err is ErrNoMigratableVM when stage 1 had no legal candidate for this
	// environment (the environment's episode is effectively over).
	Err error
}

// waveOut carries the stacked extractor outputs. Row segment b of pmAll /
// vmAll is delimited by the context's pmOff / vmOff.
type waveOut struct {
	pmAll, vmAll *tensor.Tensor
	// crossVM / crossPM are the stacked inputs (VM queries, PM keys) of the
	// last block's stage-3 VM→PM cross attention, kept so pmLogitsCol can ask
	// for the selected VM's probability row; nil in NoAttention mode.
	crossVM, crossPM *tensor.Tensor
	// vmCol, when non-nil, is the step cache's maintained vm_head output
	// column (ΣnVM×1); the stage-1 head uses it instead of re-running the
	// head GEMM.
	vmCol *tensor.Tensor
}

// extractWave is the full-recompute front end: every request's features are
// extracted into the stacked batch, and the wave is laid out over it.
func (ic *InferCtx) extractWave(reqs []WaveReq) {
	ic.clusters = ic.clusters[:0]
	for i := range reqs {
		c := reqs[i].State
		if reqs[i].Env != nil {
			c = reqs[i].Env.Cluster()
		}
		ic.clusters = append(ic.clusters, c)
	}
	fb := &ic.fb
	fb.Extract(ic.clusters)
	ic.pmOff, ic.vmOff = fb.PMOff, fb.VMOff
	ic.feats = ic.feats[:0]
	for i := range fb.Envs {
		ic.feats = append(ic.feats, &fb.Envs[i])
	}
}

// forwardWave embeds the extracted batch and runs the block stack: identical
// math per segment to forward, one GEMM per row-wise stage for the whole
// wave.
func (m *Model) forwardWave(ic *InferCtx) *waveOut {
	ar := &ic.arena
	fb := &ic.fb
	n := fb.Len()
	pmAll := m.pmEmbed.Infer(ar, ar.FromFlat(fb.PMOff[n], sim.PMFeatDim, fb.FlatPM()))
	vmAll := m.vmEmbed.Infer(ar, ar.FromFlat(fb.VMOff[n], sim.VMFeatDim, fb.FlatVM()))
	return m.runBlocks(ic, pmAll, vmAll, m.treeGroups(ic), false)
}

// treeGroups builds the tree partition of the wave's interleaved rows when
// the extractor has a tree stage, and returns nil otherwise.
func (m *Model) treeGroups(ic *InferCtx) [][]int {
	if m.Cfg.Extractor != SparseAttention {
		return nil
	}
	return ic.gb.build(ic.feats)
}

// runBlocks runs the block stack from the given stacked PM/VM embeddings over
// the context's row layout — the one block loop both front ends feed.
// skipFirstTree skips block 0's tree stage: the step cache has already
// patched it and hands in views of its cached post-tree residual. pmAll /
// vmAll may be persistent cache tensors; every stage here treats its inputs
// read-only.
func (m *Model) runBlocks(ic *InferCtx, pmAll, vmAll *tensor.Tensor, groups [][]int, skipFirstTree bool) *waveOut {
	ar := &ic.arena
	pmOff, vmOff := ic.pmOff, ic.vmOff
	nSeg := len(pmOff) - 1
	totPM, totVM := pmOff[nSeg], vmOff[nSeg]
	out := &ic.out
	out.crossVM, out.crossPM, out.vmCol = nil, nil, nil
	d := pmAll.Cols
	for bi, blk := range m.blocks {
		if blk.tree != nil && !(skipFirstTree && bi == 0) {
			// Stage 1: tree-local attention over the interleaved
			// [PM_b; VM_b] stacks, block-diagonal across trees AND
			// segments in one GroupedAttention pass.
			x := ar.Uninit(totPM+totVM, d)
			for b := 0; b < nSeg; b++ {
				base := pmOff[b] + vmOff[b]
				nPM := pmOff[b+1] - pmOff[b]
				ar.SetRows(x, base, ar.Rows(pmAll, pmOff[b], pmOff[b+1]))
				ar.SetRows(x, base+nPM, ar.Rows(vmAll, vmOff[b], vmOff[b+1]))
			}
			tx := blk.tree.InferTree(ar, x, groups)
			x = ar.Add(x, tx) // residual
			pmNew := ar.Uninit(totPM, d)
			vmNew := ar.Uninit(totVM, d)
			for b := 0; b < nSeg; b++ {
				base := pmOff[b] + vmOff[b]
				nPM := pmOff[b+1] - pmOff[b]
				nVM := vmOff[b+1] - vmOff[b]
				ar.SetRows(pmNew, pmOff[b], ar.Rows(x, base, base+nPM))
				ar.SetRows(vmNew, vmOff[b], ar.Rows(x, base+nPM, base+nPM+nVM))
			}
			pmAll, vmAll = pmNew, vmNew
		}
		if blk.pmSelf != nil {
			// Stage 2: intra-set self-attention, segment-diagonal.
			pmAll = ar.Add(pmAll, blk.pmSelf.InferSeg(ar, pmAll, pmAll, pmOff, pmOff))
			vmAll = ar.Add(vmAll, blk.vmSelf.InferSeg(ar, vmAll, vmAll, vmOff, vmOff))
			// Stage 3: VM -> PM cross attention.
			out.crossVM, out.crossPM = vmAll, pmAll
			vmAll = ar.Add(vmAll, blk.cross.InferSeg(ar, vmAll, pmAll, vmOff, pmOff))
		}
		// Dense layers + layer norm: one stacked GEMM chain for the wave.
		pmAll = blk.pmLN.Infer(ar, ar.Add(pmAll, blk.pmFF.Infer(ar, pmAll)))
		vmAll = blk.vmLN.Infer(ar, ar.Add(vmAll, blk.vmFF.Infer(ar, vmAll)))
	}
	out.pmAll, out.vmAll = pmAll, vmAll
	return out
}

// vmLogitsCol computes stage-1 logits for every segment in one stacked head
// GEMM and returns the ΣnVM×1 column (the step cache's maintained column
// when it supplied one — same bits, it patches the column with the same
// kernel dispatch the full head uses).
func (m *Model) vmLogitsCol(ic *InferCtx, out *waveOut) *tensor.Tensor {
	if out.vmCol != nil {
		return out.vmCol
	}
	return m.vmHead.Infer(&ic.arena, out.vmAll)
}

// logitsRow extracts one segment's 1×n logit row (rows lo:hi of a stacked
// head column), applying the optional legality mask.
func logitsRow(ar *tensor.Arena, col *tensor.Tensor, lo, hi int, mask []bool) *tensor.Tensor {
	row := ar.Transpose(ar.Rows(col, lo, hi))
	if mask != nil {
		row = ar.MaskedFill(row, mask, -1e9)
	}
	return row
}

// pmLogitsCol assembles the stage-2 merge input for every segment — [pmE,
// broadcast selected-VM embedding, stage-3 attention score] — and runs
// pmMerge as one stacked GEMM. vmSel[b] is segment b's selected VM (a
// negative selection leaves that segment's rows zero; its output is unused).
// Returns the ΣnPM×1 logit column.
func (m *Model) pmLogitsCol(ic *InferCtx, out *waveOut, vmSel []int) *tensor.Tensor {
	ar := &ic.arena
	pmOff, vmOff := ic.pmOff, ic.vmOff
	d := out.pmAll.Cols
	w := 2*d + 1
	merged := ar.Tensor(pmOff[len(vmSel)], w)
	for b, vm := range vmSel {
		if vm < 0 {
			continue
		}
		sel := out.vmAll.Data[(vmOff[b]+vm)*d : (vmOff[b]+vm+1)*d]
		var crossRow []float64
		if out.crossVM != nil {
			cross := m.blocks[len(m.blocks)-1].cross
			crossRow = cross.ProbRow(ar, out.crossVM, out.crossPM, vmOff[b]+vm, pmOff[b], pmOff[b+1]).Data
		}
		for i := pmOff[b]; i < pmOff[b+1]; i++ {
			dst := merged.Data[i*w : (i+1)*w]
			copy(dst[:d], out.pmAll.Data[i*d:(i+1)*d])
			copy(dst[d:2*d], sel)
			if crossRow != nil {
				dst[2*d] = crossRow[i-pmOff[b]]
			}
		}
	}
	return m.pmMerge.Infer(ar, merged)
}

// jointLogitsRow computes segment b's FullMask joint logits (1×(M·N)) from
// the stacked embeddings.
func (m *Model) jointLogitsRow(ic *InferCtx, out *waveOut, b int, mask []bool) *tensor.Tensor {
	ar := &ic.arena
	vmE := ar.Rows(out.vmAll, ic.vmOff[b], ic.vmOff[b+1])
	pmE := ar.Rows(out.pmAll, ic.pmOff[b], ic.pmOff[b+1])
	scores := ar.MatMulT(vmE, pmE)
	flat := ar.Reshape(scores, 1, scores.Rows*scores.Cols)
	if mask != nil {
		flat = ar.MaskedFill(flat, mask, -1e9)
	}
	return flat
}

// valuesCol runs the critic over every segment's pooled embeddings as one
// B×2d GEMM, filling dst with per-segment values.
func (m *Model) valuesCol(ic *InferCtx, out *waveOut, dst []float64) []float64 {
	ar := &ic.arena
	pmOff, vmOff := ic.pmOff, ic.vmOff
	nSeg := len(pmOff) - 1
	d := out.pmAll.Cols
	pooled := ar.Uninit(nSeg, 2*d)
	for b := 0; b < nSeg; b++ {
		pm := ar.MeanRows(ar.Rows(out.pmAll, pmOff[b], pmOff[b+1]))
		vm := ar.MeanRows(ar.Rows(out.vmAll, vmOff[b], vmOff[b+1]))
		copy(pooled.Data[b*2*d:b*2*d+d], pm.Data)
		copy(pooled.Data[b*2*d+d:(b+1)*2*d], vm.Data)
	}
	col := m.critic.Infer(ar, pooled)
	dst = resizeFloats(dst, nSeg)
	copy(dst, col.Data)
	return dst
}

// optAt resolves the per-environment sample options: a single-element slice
// broadcasts to every environment.
func optAt(opts []SampleOpts, b int) SampleOpts {
	if len(opts) == 1 {
		return opts[0]
	}
	return opts[b]
}

// InferBatch selects one action per environment through a single wave.
// Environment b's decision is bit-identical to what Infer picks for it alone
// given the same rng stream. opts is per-environment (a single element
// broadcasts). Environments with no migratable VM get ErrNoMigratableVM in
// their BatchAction. acts is an optional reusable result slice. Zero heap
// allocations at a stable batch shape and GOMAXPROCS=1 (see InferCtx).
//
// InferBatch is a homogeneous WaveInfer wave; see Model.ServeWave for the
// general mixed-kind form the serving scheduler drives.
func (m *Model) InferBatch(ic *InferCtx, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts, acts []BatchAction) []BatchAction {
	if cap(acts) < len(envs) {
		acts = make([]BatchAction, len(envs))
	} else {
		acts = acts[:len(envs)]
	}
	ic.reqs = ic.reqs[:0]
	for i, env := range envs {
		ic.reqs = append(ic.reqs, WaveReq{Kind: WaveInfer, Env: env, Rng: rngs[i], Opts: optAt(opts, i)})
	}
	ic.waveRes = m.ServeWave(ic, ic.reqs, ic.waveRes)
	for i, r := range ic.waveRes {
		acts[i] = BatchAction{VM: r.VM, PM: r.PM, Err: r.Err}
	}
	return acts
}

// ActBatch is the training-path InferBatch: one wave, one Decision per
// environment with the retained state snapshot, log-prob, and critic value
// PPO stores. Per environment the decision is bit-identical to Act given the
// same rng stream. The returned decisions own their storage (state snapshots
// survive the context's next wave); the per-decision allocations are
// inherent to retention.
func (m *Model) ActBatch(ic *InferCtx, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts) []*Decision {
	decs := make([]*Decision, len(envs))
	ic.reqs = ic.reqs[:0]
	for i, env := range envs {
		ic.reqs = append(ic.reqs, WaveReq{Kind: WaveAct, Env: env, Rng: rngs[i], Opts: optAt(opts, i)})
	}
	ic.waveRes = m.ServeWave(ic, ic.reqs, ic.waveRes)
	for i, r := range ic.waveRes {
		decs[i] = r.Dec
	}
	return decs
}

// ValuesBatch returns the critic value of each cluster state through one
// wave — the expansion primitive search-based consumers (MCTS value priors)
// use to score candidate children in a single GEMM instead of one forward
// per child. dst is an optional reusable slice.
func (m *Model) ValuesBatch(ic *InferCtx, cs []*cluster.Cluster, dst []float64) []float64 {
	ic.reqs = ic.reqs[:0]
	for _, c := range cs {
		ic.reqs = append(ic.reqs, WaveReq{Kind: WaveValue, State: c})
	}
	ic.waveRes = m.ServeWave(ic, ic.reqs, ic.waveRes)
	dst = resizeFloats(dst, len(cs))
	for i, r := range ic.waveRes {
		dst[i] = r.Value
	}
	return dst
}
