package cluster

// Dirty journal: a change log of which PM and VM ids were touched since the
// last ClearDirty. The serving loop migrates one VM per policy step, so
// between consecutive forward passes only a handful of feature rows change;
// the journal is what lets the incremental-inference path (sim.Features.
// UpdateInto, policy's step cache) re-extract and recompute only those rows
// while staying bit-identical to a full recompute.
//
// The journal is deliberately a superset tracker: every mutation that *could*
// change a machine's observable state marks it dirty, including mutations
// that are later rolled back (a failed Migrate marks source, destination and
// VM even though the rollback restores them). Consumers must treat dirty as
// "recompute this row", never as "this row certainly changed" — the property
// tests pin changed ⊆ dirty, not equality.
//
// Generation counting: every mutation bumps a monotone generation counter,
// and ClearDirty returns the generation at the clear. A consumer snapshots
// that token; on its next visit, the journal's id lists describe exactly the
// mutations since the snapshot iff LastClear() still equals the token (a
// second consumer clearing in between invalidates the first's view — each
// cluster supports one journal consumer, which matches the one-goroutine
// confinement Cluster already requires). A generation still equal to the
// token additionally means nothing at all changed.
//
// The zero journal reports DirtyFull: a cluster that was never cleared,
// built by struct literal (the trace loader), cloned, copied into, or
// resized by AddVM has no usable id list and must be treated as all-dirty.
// Clone and CopyFrom intentionally do not allocate journal storage — the
// arrays materialize on the consumer's first ClearDirty.
type journal struct {
	// pmEpoch/vmEpoch stamp the epoch in which an id was last marked; a
	// stamp equal to the current epoch means "already in the id list", so
	// each id appears at most once per epoch and the lists stay bounded by
	// the cluster size even when nobody ever clears.
	pmEpoch []uint64
	vmEpoch []uint64
	pmIDs   []int
	vmIDs   []int
	epoch   uint64
	// gen bumps on every touch, full-mark and clear; clearGen records gen at
	// the last ClearDirty (0 = never cleared).
	gen      uint64
	clearGen uint64
	// full marks the whole cluster dirty (CopyFrom, AddVM, shape drift).
	full bool
}

// touchPM records a mutation of PM id.
func (j *journal) touchPM(id int) {
	j.gen++
	if j.full || j.clearGen == 0 {
		return
	}
	if id >= len(j.pmEpoch) {
		j.full = true
		return
	}
	if j.pmEpoch[id] != j.epoch {
		j.pmEpoch[id] = j.epoch
		j.pmIDs = append(j.pmIDs, id)
	}
}

// touchVM records a mutation of VM id.
func (j *journal) touchVM(id int) {
	j.gen++
	if j.full || j.clearGen == 0 {
		return
	}
	if id >= len(j.vmEpoch) {
		j.full = true
		return
	}
	if j.vmEpoch[id] != j.epoch {
		j.vmEpoch[id] = j.epoch
		j.vmIDs = append(j.vmIDs, id)
	}
}

// markFull drops per-id tracking until the next ClearDirty: the mutation
// (bulk copy, resize) is too coarse to journal row by row.
func (j *journal) markFull() {
	j.gen++
	j.full = true
}

// ClearDirty resets the journal and returns the generation token of the
// clear. Until the next mutation, the generation equals the token; the dirty
// sets accumulated afterwards describe exactly the mutations since this call
// as long as LastClear() still returns the same token.
func (c *Cluster) ClearDirty() uint64 {
	j := &c.j
	j.pmEpoch = resizeEpochs(j.pmEpoch, len(c.PMs))
	j.vmEpoch = resizeEpochs(j.vmEpoch, len(c.VMs))
	j.pmIDs = j.pmIDs[:0]
	j.vmIDs = j.vmIDs[:0]
	j.epoch++
	j.full = false
	j.gen++
	j.clearGen = j.gen
	return j.gen
}

// resizeEpochs returns s with length n. Stale stamps from a previous shape
// need no zeroing: the caller bumps the epoch, so every old stamp is already
// "not this epoch".
func resizeEpochs(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// LastClear returns the token of the most recent ClearDirty, 0 if the
// journal was never cleared. A consumer whose snapshot token no longer
// matches must fall back to a full recompute: someone else consumed the
// journal in between.
func (c *Cluster) LastClear() uint64 { return c.j.clearGen }

// DirtyFull reports whether the whole cluster must be treated as dirty:
// never cleared, bulk-copied (Clone/CopyFrom), or resized since the last
// ClearDirty. When it returns true the id lists are meaningless.
func (c *Cluster) DirtyFull() bool { return c.j.full || c.j.clearGen == 0 }

// DirtyPMs returns the ids of PMs touched since the last ClearDirty, in
// first-touch order, each at most once. Valid only when !DirtyFull(); the
// slice aliases journal storage and is invalidated by the next ClearDirty.
func (c *Cluster) DirtyPMs() []int { return c.j.pmIDs }

// DirtyVMs returns the ids of VMs touched since the last ClearDirty, under
// the same contract as DirtyPMs.
func (c *Cluster) DirtyVMs() []int { return c.j.vmIDs }
