package cluster

import (
	"errors"
	"fmt"
)

// Cluster is the mutable VM-PM mapping the rescheduler operates on. The zero
// value is unusable; build one with New or by loading a trace mapping.
//
// The cluster keeps incremental aggregates (total free CPU/memory and total
// fragment per queried chunk size) that are updated in O(1) by Place and
// Remove, so FragRate and friends never rescan all PMs on the hot path.
// Aggregates initialize lazily on first query, which keeps struct-literal
// construction (the trace loader) valid. Code outside this package must
// mutate placements only through Place/Remove/Migrate; writing NUMA usage
// fields directly after an aggregate query would desynchronize the totals
// (Validate catches this).
type Cluster struct {
	PMs []PM
	VMs []VM
	// AntiAffinity enables the hard service anti-affinity constraint: two
	// VMs with the same non-negative Service id must not share a PM.
	AntiAffinity bool
	// svc is the dense per-PM service-count index for O(1) anti-affinity
	// checks; zero value when AntiAffinity is off.
	svc svcIndex
	// agg holds the lazily initialized incremental aggregates.
	agg aggregates
	// j is the dirty journal feeding incremental feature extraction; see
	// journal.go. Zero value = everything dirty.
	j journal
}

// svcIndex tracks hosted VMs per (PM, service) in one dense array:
// counts[pm*stride+service]. The flat layout clones with a single copy and
// needs no per-PM map allocations.
type svcIndex struct {
	counts []int32
	stride int // max service id + 1; 0 when the index is unused
}

func (s *svcIndex) count(pm, service int) int32 {
	if service < 0 || service >= s.stride {
		return 0
	}
	return s.counts[pm*s.stride+service]
}

func (s *svcIndex) add(pm, service int, delta int32, numPMs int) {
	if service < 0 {
		return
	}
	if service >= s.stride {
		s.grow(service+1, numPMs)
	}
	s.counts[pm*s.stride+service] += delta
}

// grow re-strides the index for a service id beyond the current range (rare:
// services are normally assigned before EnableAntiAffinity).
func (s *svcIndex) grow(stride, numPMs int) {
	counts := make([]int32, numPMs*stride)
	for pm := 0; pm < numPMs; pm++ {
		copy(counts[pm*stride:], s.counts[pm*s.stride:(pm+1)*s.stride])
	}
	s.counts, s.stride = counts, stride
}

// build populates the index from current placements.
func (s *svcIndex) build(c *Cluster) {
	maxSvc := -1
	for i := range c.VMs {
		if c.VMs[i].Service > maxSvc {
			maxSvc = c.VMs[i].Service
		}
	}
	s.stride = maxSvc + 1
	need := len(c.PMs) * s.stride
	if cap(s.counts) < need {
		s.counts = make([]int32, need)
	} else {
		s.counts = s.counts[:need]
		for i := range s.counts {
			s.counts[i] = 0
		}
	}
	for i := range c.VMs {
		v := &c.VMs[i]
		if v.Placed() && v.Service >= 0 {
			s.counts[v.PM*s.stride+v.Service]++
		}
	}
}

// chunkTotal is one tracked fragment aggregate: the cluster-wide fragment at
// a given chunk granularity.
type chunkTotal struct {
	chunk int
	total int
}

// aggregates caches cluster-wide totals, kept in sync by Place/Remove. Chunk
// sizes are registered on first query; the tracked set stays tiny (the
// objectives use 16 and 64).
type aggregates struct {
	valid   bool
	freeCPU int
	freeMem int
	cpuFrag []chunkTotal
	memFrag []chunkTotal
}

// Common placement errors.
var (
	ErrNoCapacity   = errors.New("cluster: insufficient capacity")
	ErrAffinity     = errors.New("cluster: anti-affinity conflict")
	ErrAlreadyHere  = errors.New("cluster: vm already placed")
	ErrNotPlaced    = errors.New("cluster: vm not placed")
	ErrBadReference = errors.New("cluster: index out of range")
)

// New builds a cluster of n PMs of the given type with no VMs.
func New(n int, pt PMType) *Cluster {
	c := &Cluster{PMs: make([]PM, n)}
	for i := range c.PMs {
		c.PMs[i].ID = i
		for j := range c.PMs[i].Numas {
			c.PMs[i].Numas[j] = Numa{CPUCap: pt.CPUPerNuma, MemCap: pt.MemPerNuma}
		}
	}
	return c
}

// AddVM registers an unplaced VM and returns its id.
func (c *Cluster) AddVM(t VMType) int {
	id := len(c.VMs)
	c.VMs = append(c.VMs, VM{
		ID: id, CPU: t.CPU, Mem: t.Mem, Numas: t.Numas, PM: -1, Numa: -1, Service: -1,
	})
	c.j.markFull() // the row space itself changed shape
	return id
}

// EnableAntiAffinity turns on the anti-affinity constraint and (re)builds the
// per-PM service index.
func (c *Cluster) EnableAntiAffinity() {
	c.AntiAffinity = true
	c.svc.build(c)
}

// ensureAgg initializes the incremental aggregates with one full scan.
func (c *Cluster) ensureAgg() {
	if c.agg.valid {
		return
	}
	c.agg.freeCPU, c.agg.freeMem = 0, 0
	for i := range c.PMs {
		c.agg.freeCPU += c.PMs[i].FreeCPU()
		c.agg.freeMem += c.PMs[i].FreeMem()
	}
	for i := range c.agg.cpuFrag {
		c.agg.cpuFrag[i].total = c.scanFrag(c.agg.cpuFrag[i].chunk, true)
	}
	for i := range c.agg.memFrag {
		c.agg.memFrag[i].total = c.scanFrag(c.agg.memFrag[i].chunk, false)
	}
	c.agg.valid = true
}

// scanFrag brute-force computes a cluster-wide fragment total.
func (c *Cluster) scanFrag(chunk int, cpu bool) int {
	total := 0
	for i := range c.PMs {
		if cpu {
			total += c.PMs[i].Fragment(chunk)
		} else {
			total += c.PMs[i].MemFragment(chunk)
		}
	}
	return total
}

// fragTotal returns the tracked aggregate for a chunk size, registering it
// (one scan) on first use.
func (c *Cluster) fragTotal(chunk int, cpu bool) int {
	c.ensureAgg()
	tracked := &c.agg.cpuFrag
	if !cpu {
		tracked = &c.agg.memFrag
	}
	for i := range *tracked {
		if (*tracked)[i].chunk == chunk {
			return (*tracked)[i].total
		}
	}
	t := c.scanFrag(chunk, cpu)
	*tracked = append(*tracked, chunkTotal{chunk: chunk, total: t})
	return t
}

// addUsage applies a usage delta to NUMA j of PM p, keeping the tracked
// aggregates in sync. All placement mutations must go through here.
func (c *Cluster) addUsage(p *PM, j, dCPU, dMem int) {
	c.j.touchPM(p.ID)
	n := &p.Numas[j]
	if c.agg.valid {
		c.agg.freeCPU -= dCPU
		c.agg.freeMem -= dMem
		oldCPU, oldMem := n.FreeCPU(), n.FreeMem()
		for i := range c.agg.cpuFrag {
			a := &c.agg.cpuFrag[i]
			a.total += (oldCPU-dCPU)%a.chunk - oldCPU%a.chunk
		}
		for i := range c.agg.memFrag {
			a := &c.agg.memFrag[i]
			a.total += (oldMem-dMem)%a.chunk - oldMem%a.chunk
		}
	}
	n.CPUUsed += dCPU
	n.MemUsed += dMem
}

// fitsCapacity reports whether vm fits anywhere on PM p by capacity.
func (c *Cluster) fitsCapacity(v *VM, p *PM) bool {
	if v.Numas == 2 {
		for j := range p.Numas {
			if p.Numas[j].FreeCPU() < v.CPUPerNuma() || p.Numas[j].FreeMem() < v.MemPerNuma() {
				return false
			}
		}
		return true
	}
	for j := range p.Numas {
		if p.Numas[j].FreeCPU() >= v.CPUPerNuma() && p.Numas[j].FreeMem() >= v.MemPerNuma() {
			return true
		}
	}
	return false
}

// violatesAffinity reports whether placing v on PM p breaks anti-affinity.
func (c *Cluster) violatesAffinity(v *VM, pmID int) bool {
	if !c.AntiAffinity || v.Service < 0 {
		return false
	}
	return c.svc.count(pmID, v.Service) > 0
}

// CanHost reports whether PM pmID can legally receive vmID: the PM is Up,
// capacity on the required NUMAs and, if enabled, anti-affinity. A VM can
// never "move" to the PM currently hosting it.
func (c *Cluster) CanHost(vmID, pmID int) bool {
	v := &c.VMs[vmID]
	if v.PM == pmID {
		return false
	}
	if c.PMs[pmID].Health != Up {
		return false
	}
	if c.violatesAffinity(v, pmID) {
		return false
	}
	return c.fitsCapacity(v, &c.PMs[pmID])
}

// SetHealth transitions PM pmID to health h. Hosted VMs are untouched: a
// crashed or draining PM keeps its placements until something evacuates
// them (capacity aggregates are availability-agnostic; health is a
// placement constraint, enforced by CanHost/BestFit/plan repair — the raw
// Place/Remove mutations stay health-blind so evacuation rollbacks can
// always restore a VM to its source).
func (c *Cluster) SetHealth(pmID int, h Health) error {
	if pmID < 0 || pmID >= len(c.PMs) {
		return ErrBadReference
	}
	c.j.touchPM(pmID)
	c.PMs[pmID].Health = h
	return nil
}

// HealthCounts returns the number of PMs in each health state, indexed by
// Health value.
func (c *Cluster) HealthCounts() (counts [3]int) {
	for i := range c.PMs {
		h := c.PMs[i].Health
		if h > Down {
			h = Down
		}
		counts[h]++
	}
	return counts
}

// StrandedVMs appends to dst the ids of VMs hosted on non-Up PMs — the
// evacuation backlog a degraded fleet carries — and returns it.
func (c *Cluster) StrandedVMs(dst []int) []int {
	for i := range c.PMs {
		if c.PMs[i].Health == Up {
			continue
		}
		dst = append(dst, c.PMs[i].VMs...)
	}
	return dst
}

// BestNuma returns the feasible NUMA of pmID for a single-NUMA VM that
// minimizes the post-placement X-core fragment (ties: lower index). Returns
// -1 when the VM does not fit on any NUMA. For double-NUMA VMs it returns 0
// when both NUMAs fit, else -1.
func (c *Cluster) BestNuma(vmID, pmID, x int) int {
	v := &c.VMs[vmID]
	p := &c.PMs[pmID]
	if v.Numas == 2 {
		if c.fitsCapacity(v, p) {
			return 0
		}
		return -1
	}
	best, bestFrag := -1, 0
	for j := range p.Numas {
		n := &p.Numas[j]
		if n.FreeCPU() < v.CPUPerNuma() || n.FreeMem() < v.MemPerNuma() {
			continue
		}
		frag := (n.FreeCPU() - v.CPUPerNuma()) % x
		if best == -1 || frag < bestFrag {
			best, bestFrag = j, frag
		}
	}
	return best
}

// Place puts an unplaced VM onto PM pmID / NUMA numa (numa ignored for
// double-NUMA VMs). It validates capacity and anti-affinity.
func (c *Cluster) Place(vmID, pmID, numa int) error {
	if vmID < 0 || vmID >= len(c.VMs) || pmID < 0 || pmID >= len(c.PMs) {
		return ErrBadReference
	}
	v := &c.VMs[vmID]
	if v.Placed() {
		return fmt.Errorf("%w: vm %d on pm %d", ErrAlreadyHere, vmID, v.PM)
	}
	if c.violatesAffinity(v, pmID) {
		return fmt.Errorf("%w: vm %d service %d on pm %d", ErrAffinity, vmID, v.Service, pmID)
	}
	p := &c.PMs[pmID]
	if v.Numas == 2 {
		if !c.fitsCapacity(v, p) {
			return fmt.Errorf("%w: vm %d on pm %d", ErrNoCapacity, vmID, pmID)
		}
		for j := range p.Numas {
			c.addUsage(p, j, v.CPUPerNuma(), v.MemPerNuma())
		}
		numa = 0
	} else {
		if numa < 0 || numa >= NumasPerPM {
			return ErrBadReference
		}
		n := &p.Numas[numa]
		if n.FreeCPU() < v.CPUPerNuma() || n.FreeMem() < v.MemPerNuma() {
			return fmt.Errorf("%w: vm %d on pm %d numa %d", ErrNoCapacity, vmID, pmID, numa)
		}
		c.addUsage(p, numa, v.CPUPerNuma(), v.MemPerNuma())
	}
	v.PM, v.Numa = pmID, numa
	p.VMs = append(p.VMs, vmID)
	c.j.touchVM(vmID)
	if c.AntiAffinity {
		c.svc.add(pmID, v.Service, 1, len(c.PMs))
	}
	return nil
}

// Remove detaches a placed VM from its PM, freeing resources.
func (c *Cluster) Remove(vmID int) error {
	if vmID < 0 || vmID >= len(c.VMs) {
		return ErrBadReference
	}
	v := &c.VMs[vmID]
	if !v.Placed() {
		return fmt.Errorf("%w: vm %d", ErrNotPlaced, vmID)
	}
	p := &c.PMs[v.PM]
	if v.Numas == 2 {
		for j := range p.Numas {
			c.addUsage(p, j, -v.CPUPerNuma(), -v.MemPerNuma())
		}
	} else {
		c.addUsage(p, v.Numa, -v.CPUPerNuma(), -v.MemPerNuma())
	}
	for i, id := range p.VMs {
		if id == vmID {
			p.VMs[i] = p.VMs[len(p.VMs)-1]
			p.VMs = p.VMs[:len(p.VMs)-1]
			break
		}
	}
	if c.AntiAffinity {
		c.svc.add(v.PM, v.Service, -1, len(c.PMs))
	}
	c.j.touchVM(vmID)
	v.PM, v.Numa = -1, -1
	return nil
}

// Migrate moves a placed VM to PM pmID, choosing the destination NUMA with
// BestNuma under fragment granularity x. It is atomic: on failure the VM
// remains on its source PM.
func (c *Cluster) Migrate(vmID, pmID, x int) error {
	if vmID < 0 || vmID >= len(c.VMs) || pmID < 0 || pmID >= len(c.PMs) {
		return ErrBadReference
	}
	v := &c.VMs[vmID]
	if !v.Placed() {
		return fmt.Errorf("%w: vm %d", ErrNotPlaced, vmID)
	}
	if v.PM == pmID {
		return fmt.Errorf("%w: vm %d already on pm %d", ErrAlreadyHere, vmID, pmID)
	}
	if !c.CanHost(vmID, pmID) {
		return fmt.Errorf("%w: vm %d to pm %d", ErrNoCapacity, vmID, pmID)
	}
	srcPM, srcNuma := v.PM, v.Numa
	if err := c.Remove(vmID); err != nil {
		return err
	}
	numa := c.BestNuma(vmID, pmID, x)
	if numa < 0 {
		// Should be impossible after CanHost; restore and report.
		if rerr := c.Place(vmID, srcPM, srcNuma); rerr != nil {
			return fmt.Errorf("cluster: migrate rollback failed: %v (original: %w)", rerr, ErrNoCapacity)
		}
		return fmt.Errorf("%w: vm %d to pm %d", ErrNoCapacity, vmID, pmID)
	}
	if err := c.Place(vmID, pmID, numa); err != nil {
		if rerr := c.Place(vmID, srcPM, srcNuma); rerr != nil {
			return fmt.Errorf("cluster: migrate rollback failed: %v (original: %v)", rerr, err)
		}
		return err
	}
	return nil
}

// PlaceFragDelta returns the drop in PM pmID's X-core fragment that placing
// the (unplaced) VM vmID on NUMA numa would cause — positive means the
// placement reduces fragment. numa is ignored for double-NUMA VMs, which
// occupy both NUMAs. The score is computed arithmetically in O(1); the
// cluster is not mutated, so callers (best-fit scans) can probe every
// candidate without the Place/score/Remove round-trip. Feasibility is the
// caller's job: the delta of an infeasible placement is meaningless.
func (c *Cluster) PlaceFragDelta(vmID, pmID, numa, x int) int {
	v := &c.VMs[vmID]
	p := &c.PMs[pmID]
	cpu := v.CPUPerNuma()
	if v.Numas == 2 {
		delta := 0
		for j := range p.Numas {
			free := p.Numas[j].FreeCPU()
			delta += free%x - (free-cpu)%x
		}
		return delta
	}
	free := p.Numas[numa].FreeCPU()
	return free%x - (free-cpu)%x
}

// Fragment returns the total X-core CPU fragment across all PMs, from the
// incremental aggregate (O(1) once chunk x has been queried).
func (c *Cluster) Fragment(x int) int {
	return c.fragTotal(x, true)
}

// MemFragment returns the total chunk-GB memory fragment across all PMs.
func (c *Cluster) MemFragment(chunk int) int {
	return c.fragTotal(chunk, false)
}

// FreeCPU returns total spare CPU across all PMs. Like every aggregate
// accessor (FreeMem, Fragment, MemFragment, and the rates built on them) it
// lazily initializes the incremental cache on first use, so these reads
// mutate internal state: a Cluster must be confined to one goroutine, even
// for queries.
func (c *Cluster) FreeCPU() int {
	c.ensureAgg()
	return c.agg.freeCPU
}

// FreeMem returns total spare memory across all PMs.
func (c *Cluster) FreeMem() int {
	c.ensureAgg()
	return c.agg.freeMem
}

// rate is the shared fragment-rate helper: fragment divided by free
// resources, with the zero-free edge case (an exactly full cluster) defined
// as rate 0 — there is no spare capacity to fragment.
func rate(frag, free int) float64 {
	if free == 0 {
		return 0
	}
	return float64(frag) / float64(free)
}

// FragRate returns the X-core fragment rate: unusable spare CPU divided by
// total spare CPU (paper section 1). Zero free CPU yields FR 0.
func (c *Cluster) FragRate(x int) float64 {
	return rate(c.Fragment(x), c.FreeCPU())
}

// MemFragRate returns the chunk-GB memory fragment rate. Zero free memory
// yields rate 0.
func (c *Cluster) MemFragRate(chunk int) float64 {
	return rate(c.MemFragment(chunk), c.FreeMem())
}

// Clone returns a deep copy of the cluster (PM VM lists, affinity index and
// aggregates included). Mutating the copy never affects the original. All
// per-PM VM lists share one backing array, allocated in a single call;
// capacities are clipped so a later append on one PM cannot bleed into its
// neighbor.
func (c *Cluster) Clone() *Cluster {
	cp := &Cluster{
		PMs:          make([]PM, len(c.PMs)),
		VMs:          make([]VM, len(c.VMs)),
		AntiAffinity: c.AntiAffinity,
		agg:          c.agg,
		svc:          svcIndex{stride: c.svc.stride},
	}
	copy(cp.VMs, c.VMs)
	total := 0
	for i := range c.PMs {
		total += len(c.PMs[i].VMs)
	}
	backing := make([]int, total)
	off := 0
	for i := range c.PMs {
		cp.PMs[i] = c.PMs[i]
		n := len(c.PMs[i].VMs)
		dst := backing[off : off+n : off+n]
		copy(dst, c.PMs[i].VMs)
		cp.PMs[i].VMs = dst
		off += n
	}
	// Deep-copy the aggregate chunk lists and the service index: the struct
	// copies above shared their backing slices.
	cp.agg.cpuFrag = append([]chunkTotal(nil), c.agg.cpuFrag...)
	cp.agg.memFrag = append([]chunkTotal(nil), c.agg.memFrag...)
	if c.svc.counts != nil {
		cp.svc.counts = append([]int32(nil), c.svc.counts...)
	}
	return cp
}

// CopyFrom makes c an exact copy of src, reusing c's existing storage where
// capacities allow. In steady state (same cluster shape, as in episode
// resets and search scratch restores) it performs zero allocations. c and
// src must not alias each other's storage unless c was built by Clone.
func (c *Cluster) CopyFrom(src *Cluster) {
	if c == src {
		return
	}
	c.j.markFull() // bulk restore: too coarse to journal row by row
	c.AntiAffinity = src.AntiAffinity
	c.VMs = append(c.VMs[:0], src.VMs...)
	if cap(c.PMs) < len(src.PMs) {
		c.PMs = make([]PM, len(src.PMs))
	} else {
		c.PMs = c.PMs[:len(src.PMs)]
	}
	for i := range src.PMs {
		vms := c.PMs[i].VMs
		c.PMs[i] = src.PMs[i]
		c.PMs[i].VMs = append(vms[:0], src.PMs[i].VMs...)
	}
	c.agg.valid = src.agg.valid
	c.agg.freeCPU = src.agg.freeCPU
	c.agg.freeMem = src.agg.freeMem
	c.agg.cpuFrag = append(c.agg.cpuFrag[:0], src.agg.cpuFrag...)
	c.agg.memFrag = append(c.agg.memFrag[:0], src.agg.memFrag...)
	c.svc.stride = src.svc.stride
	if src.svc.counts == nil {
		c.svc.counts = nil
	} else {
		c.svc.counts = append(c.svc.counts[:0], src.svc.counts...)
	}
}

// CountPlaced returns the number of VMs currently assigned to a PM.
func (c *Cluster) CountPlaced() int {
	n := 0
	for i := range c.VMs {
		if c.VMs[i].Placed() {
			n++
		}
	}
	return n
}

// Validate checks internal consistency: per-NUMA usage equals the sum of
// hosted VM demands, membership lists match VM records, no capacity is
// exceeded, anti-affinity holds when enabled, and any initialized
// incremental aggregates match a brute-force recomputation. Returns the
// first problem found.
func (c *Cluster) Validate() error {
	type usage struct{ cpu, mem int }
	use := make([][NumasPerPM]usage, len(c.PMs))
	for i := range c.VMs {
		v := &c.VMs[i]
		if v.ID != i {
			return fmt.Errorf("cluster: vm %d has id %d", i, v.ID)
		}
		if !v.Placed() {
			continue
		}
		if v.PM >= len(c.PMs) {
			return fmt.Errorf("cluster: vm %d on unknown pm %d", i, v.PM)
		}
		if v.Numas == 2 {
			for j := 0; j < NumasPerPM; j++ {
				use[v.PM][j].cpu += v.CPUPerNuma()
				use[v.PM][j].mem += v.MemPerNuma()
			}
		} else {
			if v.Numa < 0 || v.Numa >= NumasPerPM {
				return fmt.Errorf("cluster: vm %d bad numa %d", i, v.Numa)
			}
			use[v.PM][v.Numa].cpu += v.CPUPerNuma()
			use[v.PM][v.Numa].mem += v.MemPerNuma()
		}
	}
	for i := range c.PMs {
		p := &c.PMs[i]
		if p.ID != i {
			return fmt.Errorf("cluster: pm %d has id %d", i, p.ID)
		}
		if p.Health > Down {
			return fmt.Errorf("cluster: pm %d has unknown health %d", i, p.Health)
		}
		for j := range p.Numas {
			n := &p.Numas[j]
			if n.CPUUsed != use[i][j].cpu || n.MemUsed != use[i][j].mem {
				return fmt.Errorf("cluster: pm %d numa %d usage (%d cpu, %d mem) != hosted (%d, %d)",
					i, j, n.CPUUsed, n.MemUsed, use[i][j].cpu, use[i][j].mem)
			}
			if n.CPUUsed > n.CPUCap || n.MemUsed > n.MemCap {
				return fmt.Errorf("cluster: pm %d numa %d over capacity", i, j)
			}
			if n.CPUUsed < 0 || n.MemUsed < 0 {
				return fmt.Errorf("cluster: pm %d numa %d negative usage", i, j)
			}
			if n.CPUCap < 0 || n.MemCap < 0 {
				return fmt.Errorf("cluster: pm %d numa %d negative capacity", i, j)
			}
		}
		seen := make(map[int]bool, len(p.VMs))
		services := make(map[int]int)
		for _, id := range p.VMs {
			if id < 0 || id >= len(c.VMs) {
				return fmt.Errorf("cluster: pm %d hosts unknown vm %d", i, id)
			}
			if seen[id] {
				return fmt.Errorf("cluster: pm %d lists vm %d twice", i, id)
			}
			seen[id] = true
			if c.VMs[id].PM != i {
				return fmt.Errorf("cluster: pm %d lists vm %d but vm records pm %d", i, id, c.VMs[id].PM)
			}
			if s := c.VMs[id].Service; s >= 0 {
				services[s]++
			}
		}
		if c.AntiAffinity {
			for s, n := range services {
				if n > 1 {
					return fmt.Errorf("cluster: pm %d hosts %d VMs of service %d", i, n, s)
				}
			}
		}
	}
	for i := range c.VMs {
		v := &c.VMs[i]
		if !v.Placed() {
			continue
		}
		found := false
		for _, id := range c.PMs[v.PM].VMs {
			if id == i {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cluster: vm %d records pm %d but is not in its list", i, v.PM)
		}
	}
	return c.validateAggregates()
}

// validateAggregates cross-checks initialized incremental totals against a
// full recomputation.
func (c *Cluster) validateAggregates() error {
	if !c.agg.valid {
		return nil
	}
	freeCPU, freeMem := 0, 0
	for i := range c.PMs {
		freeCPU += c.PMs[i].FreeCPU()
		freeMem += c.PMs[i].FreeMem()
	}
	if c.agg.freeCPU != freeCPU || c.agg.freeMem != freeMem {
		return fmt.Errorf("cluster: aggregate free (%d cpu, %d mem) != scanned (%d, %d)",
			c.agg.freeCPU, c.agg.freeMem, freeCPU, freeMem)
	}
	for _, a := range c.agg.cpuFrag {
		if got := c.scanFrag(a.chunk, true); got != a.total {
			return fmt.Errorf("cluster: aggregate %d-core fragment %d != scanned %d", a.chunk, a.total, got)
		}
	}
	for _, a := range c.agg.memFrag {
		if got := c.scanFrag(a.chunk, false); got != a.total {
			return fmt.Errorf("cluster: aggregate %d-GB mem fragment %d != scanned %d", a.chunk, a.total, got)
		}
	}
	if c.AntiAffinity && c.svc.stride > 0 {
		var want svcIndex
		want.build(c)
		for pm := 0; pm < len(c.PMs); pm++ {
			for s := 0; s < want.stride; s++ {
				if c.svc.count(pm, s) != want.counts[pm*want.stride+s] {
					return fmt.Errorf("cluster: service index pm %d service %d count %d != scanned %d",
						pm, s, c.svc.count(pm, s), want.counts[pm*want.stride+s])
				}
			}
		}
	}
	return nil
}
