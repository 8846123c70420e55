package policy

import (
	"vmr2l/internal/cluster"
	"vmr2l/internal/nn"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// The step cache: the incremental front end of the wave forward. A rollout
// step migrates one VM, which dirties a handful of feature rows (source PM,
// destination PM, the VMs they host); everything else the previous forward
// computed is still valid. The cache keeps one environment's features and
// row-wise activations across Infer calls, recomputes only what the dirt
// reaches, and hands the result to the wave's block loop, heads and sampler
// as a one-segment wave (runBlocks, decide) — with exact bit-parity to a
// full recompute:
//
//   - row-wise stages (embedding MLPs, feed-forward, layer norm, residual
//     adds, the vm_head column) propagate dirt 1:1 and are patched with the
//     row-sliced kernels (internal/tensor/rows.go);
//   - tree attention couples rows group-locally: exactly the groups that
//     contain a dirty row — or whose membership changed because a VM moved
//     between trees — are recomputed;
//   - dense attention couples every row to every other (one changed K/V row
//     shifts every softmax denominator), so stages downstream of the first
//     dense attention recompute in full (the wave's block loop) from the
//     cached, bit-identical inputs.
//
// Coverage therefore depends on the extractor: NoAttention is fully
// incremental (this is where the large-cluster speedup lands), SparseAttention
// caches extraction + embeddings + block-0 tree attention, VanillaAttention
// caches extraction + embeddings.
//
// Cache-invalidation contract. A cached step is reused only when every key
// matches:
//
//   - model pointer and Params.Version() — any Adam step, checkpoint load,
//     or quantize/dequantize bumps the version and forces a miss;
//   - cluster pointer — a ctx moved to a different env (batch-slot reuse,
//     Fork) misses;
//   - journal token — the ctx is the cluster journal's consumer; if another
//     ctx cleared the journal since our last step (LastClear moved), the
//     dirty sets no longer describe our delta and we miss;
//   - row-space shape (nPM, nVM).
//
// A matching key can still fall back to a full recompute: DirtyFull journal
// (Reset/CopyFrom/AddVM/repair), a normalizer-bounds shift (UpdateInto
// reports a side all-dirty), or dirt so broad that patching would cost more
// than the blocked full kernels. Misses and fallbacks re-prime the cache; a
// hit patches. All three outcomes produce bit-identical forwards — the
// counters exist so callers can see (and gate on) how often the fast path
// actually runs. Do not share one InferCtx across goroutines, and do not
// interleave two incremental ctxs on the same cluster: each ClearDirty
// invalidates the other ctx's token, degrading both to full recomputes
// (correct, but pointless).

// IncrStats counts step-cache outcomes for one InferCtx.
type IncrStats struct {
	// Hits served incrementally; Misses re-primed because a cache key
	// mismatched (fresh ctx, weights changed, different cluster, superseded
	// journal token, shape change); Fallbacks re-primed despite matching
	// keys (full-dirty journal, normalizer shift, too-broad dirt).
	Hits, Misses, Fallbacks uint64
}

// SetIncremental switches the context's step cache on or off. Turning it
// off drops the cached state; turning it on starts cold (first Infer is a
// miss). Results are bit-identical in both modes.
func (ic *InferCtx) SetIncremental(on bool) {
	ic.incr = on
	if !on {
		ic.cache.primed = false
	}
}

// IncrStats returns the step-cache outcome counters.
func (ic *InferCtx) IncrStats() IncrStats { return ic.cache.stats }

// blockCache holds one NoAttention block's persistent activations: the
// feed-forward intermediates, the residual sum, and the layer-norm output.
type blockCache struct {
	pmFF, vmFF   nn.MLPCache
	pmSum, vmSum *tensor.Tensor
	pmOut, vmOut *tensor.Tensor
}

// stepCache is the persistent last-step activation state of one InferCtx.
type stepCache struct {
	// Keys (see the package comment above).
	model   *Model
	version uint64
	cl      *cluster.Cluster
	token   uint64
	nPM     int
	nVM     int
	primed  bool

	stats IncrStats

	// feat is the environment's feature set, updated in place from the
	// cluster's dirty journal; pmOff/vmOff are the one-segment row layout
	// over it.
	feat         sim.Features
	pmOff, vmOff [2]int

	// Reusable zero-copy tensor headers over the feature buffers and cache
	// slices.
	pmX, vmX       tensor.Tensor
	pmView, vmView tensor.Tensor

	pmEmbed, vmEmbed nn.MLPCache
	blocks           []blockCache
	vmHead           *tensor.Tensor // M×1 head column (NoAttention only)

	// Sparse tree stage: stacked [PM; VM] embeddings, the tree cache, the
	// post-residual rows, and the previous step's group partition for
	// membership diffing.
	x, xRes  *tensor.Tensor
	tree     nn.TreeCache
	prevLens []int
	prevOff  []int
	prevFlat []int

	// Scratch for the dirty-row bookkeeping.
	pmRows, vmRows []int
	xDirty         []int
	rowMark        []uint64
	markEpoch      uint64
	dirtyGroups    [][]int
	groupRows      []int
}

// forwardIncr is the step-cache front end: consult the cache, patch dirty
// rows on a hit, re-prime on a miss or fallback, and run what the cache does
// not cover through the wave's block loop. The returned forward is
// bit-identical to forwardWave on a freshly extracted one-segment wave.
func (m *Model) forwardIncr(ic *InferCtx, env *sim.Env) *waveOut {
	sc := &ic.cache
	c := env.Cluster()
	valid := sc.primed && sc.model == m && sc.version == m.Params.Version() &&
		sc.cl == c && sc.token == c.LastClear() &&
		sc.nPM == len(c.PMs) && sc.nVM == len(c.VMs)
	if !valid || c.DirtyFull() {
		if valid {
			sc.stats.Fallbacks++
		} else {
			sc.stats.Misses++
		}
		sc.feat.UpdateInto(c, nil, nil, true)
		sc.token = c.ClearDirty()
		return m.primeCompute(ic, c)
	}

	res := sc.feat.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), false)
	sc.token = c.ClearDirty()
	if res.PMAll || res.VMAll ||
		2*len(res.PMRows) > sc.nPM || 2*len(res.VMRows) > sc.nVM {
		// Normalizer bounds moved, or the dirt is broad enough that the
		// blocked full kernels beat row patching.
		sc.stats.Fallbacks++
		return m.primeCompute(ic, c)
	}
	// The journal's id storage is reused after ClearDirty; keep our own copy
	// of the row lists for the patch phase.
	sc.pmRows = append(sc.pmRows[:0], res.PMRows...)
	sc.vmRows = append(sc.vmRows[:0], res.VMRows...)
	sc.stats.Hits++
	sc.layOut(ic)

	f := &sc.feat
	ar := &ic.arena
	m.pmEmbed.InferRows(ar, &sc.pmEmbed, sc.featPM(f), sc.pmRows)
	m.vmEmbed.InferRows(ar, &sc.vmEmbed, sc.featVM(f), sc.vmRows)

	switch m.Cfg.Extractor {
	case NoAttention:
		pmE, vmE := sc.pmEmbed.Out, sc.vmEmbed.Out
		for b := range m.blocks {
			blk, bc := m.blocks[b], &sc.blocks[b]
			blk.pmFF.InferRows(ar, &bc.pmFF, pmE, sc.pmRows)
			ar.AddRows(bc.pmSum, pmE, bc.pmFF.Out, sc.pmRows)
			blk.pmLN.InferRows(ar, bc.pmOut, bc.pmSum, sc.pmRows)
			pmE = bc.pmOut
			blk.vmFF.InferRows(ar, &bc.vmFF, vmE, sc.vmRows)
			ar.AddRows(bc.vmSum, vmE, bc.vmFF.Out, sc.vmRows)
			blk.vmLN.InferRows(ar, bc.vmOut, bc.vmSum, sc.vmRows)
			vmE = bc.vmOut
		}
		m.vmHead.InferRows(ar, sc.vmHead, vmE, sc.vmRows)
		return sc.cachedOut(ic, pmE, vmE)

	case SparseAttention:
		d := sc.x.Cols
		nPM := sc.nPM
		sc.xDirty = sc.xDirty[:0]
		for _, p := range sc.pmRows {
			copy(sc.x.Data[p*d:(p+1)*d], sc.pmEmbed.Out.Data[p*d:(p+1)*d])
			sc.xDirty = append(sc.xDirty, p)
		}
		for _, v := range sc.vmRows {
			r := nPM + v
			copy(sc.x.Data[r*d:(r+1)*d], sc.vmEmbed.Out.Data[v*d:(v+1)*d])
			sc.xDirty = append(sc.xDirty, r)
		}
		groups := m.treeGroups(ic)
		sc.diffGroups(groups)
		m.blocks[0].tree.InferTreeRows(ar, &sc.tree, sc.x, sc.xDirty, sc.dirtyGroups, sc.groupRows)
		ar.AddRows(sc.xRes, sc.x, sc.tree.Out, sc.groupRows)
		sc.saveGroups(groups)
		return m.runBlocks(ic, sc.resPM(), sc.resVM(), groups, true)

	default: // VanillaAttention
		return m.runBlocks(ic, sc.pmEmbed.Out, sc.vmEmbed.Out, nil, false)
	}
}

// primeCompute runs a full forward on the (already current) features while
// capturing every patchable intermediate into the cache. Captures are plain
// copies of full-kernel outputs, so the primed state is bit-identical to
// what forwardWave computes — and to what a later sequence of row patches
// converges to.
func (m *Model) primeCompute(ic *InferCtx, c *cluster.Cluster) *waveOut {
	sc := &ic.cache
	f := &sc.feat
	ar := &ic.arena
	sc.model, sc.version = m, m.Params.Version()
	sc.cl = c
	sc.nPM, sc.nVM = len(f.PM), len(f.VM)
	sc.primed = true
	sc.layOut(ic)

	pmE := m.pmEmbed.InferInto(ar, &sc.pmEmbed, sc.featPM(f))
	vmE := m.vmEmbed.InferInto(ar, &sc.vmEmbed, sc.featVM(f))

	switch m.Cfg.Extractor {
	case NoAttention:
		if len(sc.blocks) < len(m.blocks) {
			sc.blocks = make([]blockCache, len(m.blocks))
		}
		for b := range m.blocks {
			blk, bc := m.blocks[b], &sc.blocks[b]
			bc.pmSum = captureT(bc.pmSum, ar.Add(pmE, blk.pmFF.InferInto(ar, &bc.pmFF, pmE)))
			bc.pmOut = captureT(bc.pmOut, blk.pmLN.Infer(ar, bc.pmSum))
			pmE = bc.pmOut
			bc.vmSum = captureT(bc.vmSum, ar.Add(vmE, blk.vmFF.InferInto(ar, &bc.vmFF, vmE)))
			bc.vmOut = captureT(bc.vmOut, blk.vmLN.Infer(ar, bc.vmSum))
			vmE = bc.vmOut
		}
		sc.vmHead = captureT(sc.vmHead, m.vmHead.Infer(ar, vmE))
		return sc.cachedOut(ic, pmE, vmE)

	case SparseAttention:
		d := m.Cfg.DModel
		sc.x = ensureT(sc.x, sc.nPM+sc.nVM, d)
		copy(sc.x.Data[:sc.nPM*d], pmE.Data)
		copy(sc.x.Data[sc.nPM*d:], vmE.Data)
		groups := m.treeGroups(ic)
		m.blocks[0].tree.InferTreeInto(ar, &sc.tree, sc.x, groups)
		sc.xRes = captureT(sc.xRes, ar.Add(sc.x, sc.tree.Out))
		sc.saveGroups(groups)
		return m.runBlocks(ic, sc.resPM(), sc.resVM(), groups, true)

	default: // VanillaAttention
		return m.runBlocks(ic, pmE, vmE, nil, false)
	}
}

// layOut lays the one-segment wave out over the cache's features.
func (sc *stepCache) layOut(ic *InferCtx) {
	sc.pmOff[1], sc.vmOff[1] = len(sc.feat.PM), len(sc.feat.VM)
	ic.pmOff, ic.vmOff = sc.pmOff[:], sc.vmOff[:]
	ic.feats = append(ic.feats[:0], &sc.feat)
}

// cachedOut is the NoAttention hand-off: the cache covers the whole block
// stack and the vm_head column, so the wave output is the cached tensors and
// no block runs.
func (sc *stepCache) cachedOut(ic *InferCtx, pmE, vmE *tensor.Tensor) *waveOut {
	out := &ic.out
	out.pmAll, out.vmAll, out.crossVM, out.crossPM, out.vmCol = pmE, vmE, nil, nil, sc.vmHead
	return out
}

// featPM returns a zero-copy tensor header over the PM feature rows.
func (sc *stepCache) featPM(f *sim.Features) *tensor.Tensor {
	sc.pmX.Rows, sc.pmX.Cols, sc.pmX.Data = len(f.PM), sim.PMFeatDim, f.FlatPM()
	return &sc.pmX
}

// featVM returns a zero-copy tensor header over the VM feature rows.
func (sc *stepCache) featVM(f *sim.Features) *tensor.Tensor {
	sc.vmX.Rows, sc.vmX.Cols, sc.vmX.Data = len(f.VM), sim.VMFeatDim, f.FlatVM()
	return &sc.vmX
}

// resPM / resVM return zero-copy views of the PM / VM slices of the cached
// post-tree residual rows.
func (sc *stepCache) resPM() *tensor.Tensor {
	d := sc.xRes.Cols
	sc.pmView.Rows, sc.pmView.Cols, sc.pmView.Data = sc.nPM, d, sc.xRes.Data[:sc.nPM*d]
	return &sc.pmView
}

func (sc *stepCache) resVM() *tensor.Tensor {
	d := sc.xRes.Cols
	sc.vmView.Rows, sc.vmView.Cols, sc.vmView.Data = sc.nVM, d, sc.xRes.Data[sc.nPM*d:]
	return &sc.vmView
}

// diffGroups computes which groups of the fresh partition must recompute:
// those whose membership changed since the cached build (a VM moved between
// trees, or became placed/unplaced) and those containing a row whose
// embedding changed (sc.xDirty). Fills sc.dirtyGroups and sc.groupRows.
// Every changed row is covered: rows are partitioned by the groups, and a
// row that moved makes both its old and new group's member lists differ.
func (sc *stepCache) diffGroups(groups [][]int) {
	sc.markEpoch++
	n := sc.nPM + sc.nVM
	if cap(sc.rowMark) < n {
		sc.rowMark = make([]uint64, n)
	} else {
		sc.rowMark = sc.rowMark[:n]
	}
	for _, r := range sc.xDirty {
		sc.rowMark[r] = sc.markEpoch
	}
	sc.dirtyGroups = sc.dirtyGroups[:0]
	sc.groupRows = sc.groupRows[:0]
	for gi, g := range groups {
		dirty := gi >= len(sc.prevLens) || sc.prevLens[gi] != len(g)
		if !dirty {
			po := sc.prevOff[gi]
			for i, r := range g {
				if sc.prevFlat[po+i] != r {
					dirty = true
					break
				}
			}
		}
		if !dirty {
			for _, r := range g {
				if sc.rowMark[r] == sc.markEpoch {
					dirty = true
					break
				}
			}
		}
		if dirty {
			sc.dirtyGroups = append(sc.dirtyGroups, g)
			sc.groupRows = append(sc.groupRows, g...)
		}
	}
}

// saveGroups records the partition the cached tree state was computed with.
func (sc *stepCache) saveGroups(groups [][]int) {
	sc.prevLens = sc.prevLens[:0]
	sc.prevOff = sc.prevOff[:0]
	sc.prevFlat = sc.prevFlat[:0]
	for _, g := range groups {
		sc.prevOff = append(sc.prevOff, len(sc.prevFlat))
		sc.prevFlat = append(sc.prevFlat, g...)
		sc.prevLens = append(sc.prevLens, len(g))
	}
}

// ensureT returns t resized to rows×cols, reusing storage when possible.
func ensureT(t *tensor.Tensor, rows, cols int) *tensor.Tensor {
	if t == nil || cap(t.Data) < rows*cols {
		return tensor.New(rows, cols)
	}
	t.Rows, t.Cols = rows, cols
	t.Data = t.Data[:rows*cols]
	return t
}

// captureT copies an arena tensor into reusable persistent storage.
func captureT(dst, src *tensor.Tensor) *tensor.Tensor {
	dst = ensureT(dst, src.Rows, src.Cols)
	copy(dst.Data, src.Data)
	return dst
}
