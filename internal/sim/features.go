package sim

import "vmr2l/internal/cluster"

// Feature dimensions of the paper's state representation (section 3.1):
// four features for each of the two NUMAs of a PM, and 14 VM features
// (per-NUMA requested cpu/mem, per-NUMA fragment deltas, plus the source
// PM's eight features).
const (
	PMFeatDim = 4 * cluster.NumasPerPM
	VMFeatDim = 4 + 2 + PMFeatDim
)

// Features is the neural-network input for one state: one row per PM and one
// row per VM, plus the tree structure (which VMs live on which PM) consumed
// by the sparse local-attention stage. All rows are views into one flat
// backing buffer, so re-extraction via ExtractInto is allocation-free once
// the buffer has grown to the cluster's shape.
type Features struct {
	PM [][]float64 // len(PMs) x PMFeatDim, min-max normalized
	VM [][]float64 // len(VMs) x VMFeatDim, min-max normalized
	// HostPM[v] is the PM currently hosting VM v, or -1.
	HostPM []int

	// buf backs every PM row followed by every VM row when the Features owns
	// its storage; batch-extracted Features instead alias slots of a
	// FeatureBatch's stacked buffers and leave buf nil.
	buf            []float64
	pmFlat, vmFlat []float64

	// Incremental-extraction state (features_incr.go): raw pre-normalization
	// rows, the per-column min/max the normalized rows were computed with,
	// and scratch for re-verifying them. rawValid gates the UpdateInto fast
	// path; any full re-extraction through fill invalidates it.
	rawPM, rawVM   []float64
	pmLo, pmHi     []float64
	vmLo, vmHi     []float64
	scanLo, scanHi []float64
	rawValid       bool
	vmMark         []uint64
	markEpoch      uint64
	vmDirty        []int
}

// FlatPM returns the PM rows as one row-major slice (len(PM)*PMFeatDim).
func (f *Features) FlatPM() []float64 { return f.pmFlat }

// FlatVM returns the VM rows as one row-major slice (len(VM)*VMFeatDim).
func (f *Features) FlatVM() []float64 { return f.vmFlat }

// Clone returns a deep copy with its own storage, detached from any batch
// buffer — the snapshot ActBatch stores for PPO's later re-evaluation.
func (f *Features) Clone() *Features {
	cp := &Features{}
	cp.reshape(len(f.PM), len(f.VM))
	copy(cp.pmFlat, f.pmFlat)
	copy(cp.vmFlat, f.vmFlat)
	copy(cp.HostPM, f.HostPM)
	return cp
}

// reshape sizes the backing buffer and row headers for nPM PMs and nVM VMs,
// reusing existing storage when the shape is unchanged.
func (f *Features) reshape(nPM, nVM int) {
	need := nPM*PMFeatDim + nVM*VMFeatDim
	if cap(f.buf) < need {
		f.buf = make([]float64, need)
	} else {
		f.buf = f.buf[:need]
		for i := range f.buf {
			f.buf[i] = 0
		}
	}
	f.reshapeInto(nPM, nVM, f.buf[:nPM*PMFeatDim], f.buf[nPM*PMFeatDim:need])
}

// reshapeInto points the row headers at the provided (already zeroed) PM and
// VM backing slices — the aliasing mode FeatureBatch uses to stack several
// environments' rows contiguously.
func (f *Features) reshapeInto(nPM, nVM int, pmFlat, vmFlat []float64) {
	f.pmFlat, f.vmFlat = pmFlat, vmFlat
	if len(f.PM) == nPM && len(f.VM) == nVM && len(f.HostPM) == nVM &&
		(nPM == 0 || &f.PM[0][0] == &pmFlat[0]) &&
		(nVM == 0 || &f.VM[0][0] == &vmFlat[0]) {
		return // headers already point into the current buffers
	}
	if cap(f.PM) < nPM {
		f.PM = make([][]float64, nPM)
	} else {
		f.PM = f.PM[:nPM]
	}
	if cap(f.VM) < nVM {
		f.VM = make([][]float64, nVM)
	} else {
		f.VM = f.VM[:nVM]
	}
	if cap(f.HostPM) < nVM {
		f.HostPM = make([]int, nVM)
	} else {
		f.HostPM = f.HostPM[:nVM]
	}
	for i := 0; i < nPM; i++ {
		f.PM[i] = pmFlat[i*PMFeatDim : (i+1)*PMFeatDim : (i+1)*PMFeatDim]
	}
	for v := 0; v < nVM; v++ {
		f.VM[v] = vmFlat[v*VMFeatDim : (v+1)*VMFeatDim : (v+1)*VMFeatDim]
	}
}

// pmRaw fills an 8-feature row for one PM: per NUMA, free CPU, free memory,
// 16-core fragment, and fragment share of free CPU. Non-Up PMs (draining or
// down) report zero spare capacity and zero fragment: to the policy they
// look exactly like full machines, so no probability mass lands on
// destinations the placement layer (CanHost) would reject anyway.
func pmRaw(p *cluster.PM, row []float64) {
	if p.Health != cluster.Up {
		for j := range row {
			row[j] = 0
		}
		return
	}
	for j := 0; j < cluster.NumasPerPM; j++ {
		n := &p.Numas[j]
		free := n.FreeCPU()
		frag := n.Fragment(cluster.DefaultFragCores)
		share := 0.0
		if free > 0 {
			share = float64(frag) / float64(free)
		}
		row[4*j+0] = float64(free)
		row[4*j+1] = float64(n.FreeMem())
		row[4*j+2] = float64(frag)
		row[4*j+3] = share
	}
}

// ExtractInto recomputes the features for c into f, reusing f's buffers.
// Steady-state re-extraction (same cluster shape) performs zero allocations;
// this is the per-step path of policy rollouts.
func ExtractInto(f *Features, c *cluster.Cluster) {
	f.reshape(len(c.PMs), len(c.VMs))
	f.fill(c)
}

// fill computes the feature rows for c into f's already-shaped (and zeroed)
// headers. Per-column normalization spans only this environment's machines,
// so filling into a batch slot is bit-identical to a standalone extraction.
func (f *Features) fill(c *cluster.Cluster) {
	f.rawValid = false // normalized in place below; the raw cache goes stale
	for i := range c.PMs {
		pmRaw(&c.PMs[i], f.PM[i])
	}
	for v := range c.VMs {
		vm := &c.VMs[v]
		row := f.VM[v] // zeroed by reshape
		f.HostPM[v] = vm.PM
		// Requested cpu/mem per NUMA; zeros pad the unused NUMA slot of
		// single-NUMA VMs (paper section 3.1).
		row[0] = float64(vm.CPUPerNuma())
		row[1] = float64(vm.MemPerNuma())
		if vm.Numas == 2 {
			row[2] = float64(vm.CPUPerNuma())
			row[3] = float64(vm.MemPerNuma())
		}
		if vm.Placed() {
			p := &c.PMs[vm.PM]
			// Fragment delta on each source NUMA if this VM were removed.
			for j := 0; j < cluster.NumasPerPM; j++ {
				n := p.Numas[j]
				occupies := vm.Numas == 2 || vm.Numa == j
				if !occupies {
					continue
				}
				before := n.Fragment(cluster.DefaultFragCores)
				after := (n.FreeCPU() + vm.CPUPerNuma()) % cluster.DefaultFragCores
				row[4+j] = float64(after - before)
			}
			pmRaw(p, row[6:])
		}
	}
	normalize(f.PM)
	normalize(f.VM)
}

// FeatureBatch extracts the states of several environments into two stacked
// flat buffers: every environment's PM rows laid back to back in one
// (ΣnPM)×PMFeatDim block and every environment's VM rows in one
// (ΣnVM)×VMFeatDim block. The batched policy forward feeds each block to the
// embedding GEMMs as a single B-row matrix, replacing B single-environment
// matmuls with one. Envs[i] is a Features header whose rows alias the shared
// buffers, so each environment's extraction and normalization is
// bit-identical to a standalone ExtractInto. Environments may have different
// shapes (ragged batches); PMOff/VMOff carry the per-environment row
// offsets. Re-extraction at a stable batch shape performs zero allocations.
type FeatureBatch struct {
	Envs []Features
	// PMOff/VMOff are the B+1 row offsets of each environment's block within
	// the stacked PM / VM buffers.
	PMOff, VMOff   []int
	pmFlat, vmFlat []float64
}

// Len returns the number of environments in the batch.
func (b *FeatureBatch) Len() int { return len(b.Envs) }

// FlatPM returns all PM rows of the batch as one row-major slice.
func (b *FeatureBatch) FlatPM() []float64 { return b.pmFlat }

// FlatVM returns all VM rows of the batch as one row-major slice.
func (b *FeatureBatch) FlatVM() []float64 { return b.vmFlat }

// Extract recomputes the batch for the given clusters, reusing all storage.
func (b *FeatureBatch) Extract(cs []*cluster.Cluster) {
	n := len(cs)
	b.PMOff = resizeInts(b.PMOff, n+1)
	b.VMOff = resizeInts(b.VMOff, n+1)
	b.PMOff[0], b.VMOff[0] = 0, 0
	for i, c := range cs {
		b.PMOff[i+1] = b.PMOff[i] + len(c.PMs)
		b.VMOff[i+1] = b.VMOff[i] + len(c.VMs)
	}
	b.pmFlat = resizeZeroed(b.pmFlat, b.PMOff[n]*PMFeatDim)
	b.vmFlat = resizeZeroed(b.vmFlat, b.VMOff[n]*VMFeatDim)
	if cap(b.Envs) < n {
		grown := make([]Features, n)
		copy(grown, b.Envs) // keep warmed headers of existing slots
		b.Envs = grown
	} else {
		b.Envs = b.Envs[:n]
	}
	for i, c := range cs {
		f := &b.Envs[i]
		f.reshapeInto(len(c.PMs), len(c.VMs),
			b.pmFlat[b.PMOff[i]*PMFeatDim:b.PMOff[i+1]*PMFeatDim],
			b.vmFlat[b.VMOff[i]*VMFeatDim:b.VMOff[i+1]*VMFeatDim])
		f.fill(c)
	}
}

// resizeInts returns dst with length n, reallocating only when needed.
func resizeInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// resizeZeroed returns dst with length n and every element zero.
func resizeZeroed(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	return dst
}

// normalize applies per-column min-max scaling in place. Its arithmetic must
// stay element-for-element identical to normalizeCaptured (features_incr.go),
// which the incremental path uses; the parity tests pin the equivalence.
func normalize(rows [][]float64) {
	if len(rows) == 0 {
		return
	}
	dim := len(rows[0])
	for col := 0; col < dim; col++ {
		lo, hi := rows[0][col], rows[0][col]
		for _, r := range rows {
			if r[col] < lo {
				lo = r[col]
			}
			if r[col] > hi {
				hi = r[col]
			}
		}
		span := hi - lo
		for _, r := range rows {
			if span == 0 {
				r[col] = 0
			} else {
				r[col] = (r[col] - lo) / span
			}
		}
	}
}
