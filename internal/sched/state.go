package sched

import (
	"fmt"
	"math/rand"
)

// Session durability (the multi-node serving tier) needs the dynamics engine
// to be checkpointable: a snapshot taken mid-run, restored on another
// replica, must continue bit-identically to the uninterrupted engine. Two
// pieces make that possible:
//
//   - CountedSource wraps the stdlib rand source and counts every draw, so
//     RNG state serializes as (seed, draws) and restores by fast-forwarding a
//     fresh source — no private stdlib state is touched.
//   - ExportState/ImportState capture everything else Advance consumes:
//     clock, cumulative stats, arrival fraction, the free-id recycling stack
//     (order matters: allocVM pops from the end), and the full failure
//     bookkeeping including the pending-evacuation queue in mark order.
//
// The cluster itself is not part of DynState; callers serialize it alongside
// (the service snapshot codec stores the exact PM.VMs ordering, which
// markEvacuations and swap-delete Remove depend on).

// CountedSource is a seeded rand.Source64 that counts every draw, making its
// position serializable. The underlying stdlib source advances exactly one
// internal step per Int63 or Uint64 call, so (seed, Draws) fully determines
// the stream position; Skip replays a fresh source to any recorded position.
//
// rand.New(NewCountedSource(seed)) produces the identical stream to
// rand.New(rand.NewSource(seed)) — wrapping is observationally free.
type CountedSource struct {
	src   rand.Source64
	draws uint64
}

// NewCountedSource returns a counted source seeded like rand.NewSource.
func NewCountedSource(seed int64) *CountedSource {
	return &CountedSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *CountedSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *CountedSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the draw count.
func (s *CountedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// Draws returns how many values have been drawn since seeding.
func (s *CountedSource) Draws() uint64 { return s.draws }

// Skip fast-forwards the source by n draws (each one stdlib source step).
// Restoring a recorded position is NewCountedSource(seed) followed by
// Skip(draws).
func (s *CountedSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.src.Uint64()
	}
	s.draws += n
}

// FailState is the serializable failure bookkeeping of a Dynamics engine.
// The pending-evacuation index is not stored: it is exactly the set of VM
// ids in Evacs and is rebuilt on import.
type FailState struct {
	Spec FailureSpec `json:"spec"`
	On   bool        `json:"on"`
	// Since maps non-Up PMs to the minute of their last transition.
	Since map[int]int `json:"since,omitempty"`
	// Evacs is the pending-evacuation queue in mark order.
	Evacs []Evacuation `json:"evacs,omitempty"`
	// Marked is the cumulative count of evacuations ever enqueued.
	Marked    int `json:"marked"`
	NextMaint int `json:"next_maint"`
	MaintIdx  int `json:"maint_idx"`
}

// DynState is the serializable state of a Dynamics engine, minus the cluster
// and the RNG position (serialized by the caller; see CountedSource).
type DynState struct {
	Minute     int     `json:"minute"`
	ArriveFrac float64 `json:"arrive_frac"`
	ReuseSlots bool    `json:"reuse_slots"`
	// FreeIDs preserves the recycling stack order: allocVM pops from the end,
	// so a reordered stack would change which VM record the next arrival
	// reuses.
	FreeIDs []int      `json:"free_ids,omitempty"`
	Stats   Stats      `json:"stats"`
	Fail    *FailState `json:"fail,omitempty"`
}

// ExportState captures the engine's full replayable state (deep-copied; the
// engine may keep advancing afterwards).
func (d *Dynamics) ExportState() DynState {
	st := DynState{
		Minute:     d.minute,
		ArriveFrac: d.arriveFrac,
		ReuseSlots: d.reuseSlots,
		Stats:      d.stats,
	}
	if len(d.freeIDs) > 0 {
		st.FreeIDs = append([]int(nil), d.freeIDs...)
	}
	if f := d.fail; f != nil {
		fs := &FailState{
			Spec:      f.spec,
			On:        f.on,
			Marked:    f.marked,
			NextMaint: f.nextMaint,
			MaintIdx:  f.maintIdx,
		}
		if len(f.since) > 0 {
			fs.Since = make(map[int]int, len(f.since))
			for pm, m := range f.since {
				fs.Since[pm] = m
			}
		}
		if len(f.evacs) > 0 {
			fs.Evacs = append([]Evacuation(nil), f.evacs...)
		}
		st.Fail = fs
	}
	return st
}

// ImportState restores an engine to a previously exported state. The engine
// must already wrap the restored cluster (with the exact PM.VMs ordering of
// the export) and an RNG fast-forwarded to the exported position; rate, mix,
// and the failure spec's rate curve come from the engine's constructor. After
// a successful import, Advance continues bit-identically to the engine the
// state was exported from.
func (d *Dynamics) ImportState(st DynState) error {
	for _, id := range st.FreeIDs {
		if id < 0 || id >= len(d.c.VMs) {
			return fmt.Errorf("sched: import: free id %d out of range (have %d vms)", id, len(d.c.VMs))
		}
	}
	if f := st.Fail; f != nil {
		for _, ev := range f.Evacs {
			if ev.VM < 0 || ev.VM >= len(d.c.VMs) {
				return fmt.Errorf("sched: import: evacuation vm %d out of range (have %d vms)", ev.VM, len(d.c.VMs))
			}
			if ev.PM < 0 || ev.PM >= len(d.c.PMs) {
				return fmt.Errorf("sched: import: evacuation pm %d out of range (have %d pms)", ev.PM, len(d.c.PMs))
			}
		}
		for pm := range f.Since {
			if pm < 0 || pm >= len(d.c.PMs) {
				return fmt.Errorf("sched: import: since pm %d out of range (have %d pms)", pm, len(d.c.PMs))
			}
		}
	}
	d.minute = st.Minute
	d.stats = st.Stats
	d.arriveFrac = st.ArriveFrac
	d.reuseSlots = st.ReuseSlots
	d.freeIDs = append(d.freeIDs[:0], st.FreeIDs...)
	if st.Fail == nil {
		d.fail = nil
		return nil
	}
	f := &failureState{
		spec:      st.Fail.Spec,
		on:        st.Fail.On,
		since:     map[int]int{},
		pending:   map[int]int{},
		nextMaint: st.Fail.NextMaint,
		maintIdx:  st.Fail.MaintIdx,
		marked:    st.Fail.Marked,
	}
	for pm, m := range st.Fail.Since {
		f.since[pm] = m
	}
	f.evacs = append([]Evacuation(nil), st.Fail.Evacs...)
	for _, ev := range f.evacs {
		f.pending[ev.VM] = ev.PM
	}
	d.fail = f
	return nil
}
