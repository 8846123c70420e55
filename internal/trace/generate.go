package trace

import (
	"fmt"
	"math/rand"
	"sort"

	"vmr2l/internal/cluster"
)

// Dataset is a collection of mappings generated from one profile, split
// train/validation/test as in the paper (4000/200/200 out of 4400; scaled
// proportionally here).
type Dataset struct {
	Profile string
	Train   []*cluster.Cluster
	Val     []*cluster.Cluster
	Test    []*cluster.Cluster
}

// All returns every mapping in the dataset, train first.
func (d *Dataset) All() []*cluster.Cluster {
	out := make([]*cluster.Cluster, 0, len(d.Train)+len(d.Val)+len(d.Test))
	out = append(out, d.Train...)
	out = append(out, d.Val...)
	return append(out, d.Test...)
}

// pickWeighted samples an index proportionally to weights. Weight vectors
// are validated at profile-construction time (Profile.Validate); this panic
// is the backstop for callers that skipped it — silently returning an
// arbitrary index would turn a bad profile into a skewed dataset.
func pickWeighted(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("trace: negative sampling weight %v in %v", w, weights))
		}
		total += w
	}
	if total <= 0 {
		panic(fmt.Sprintf("trace: sampling weights sum to %v (all zero?): %v", total, weights))
	}
	r := rng.Float64() * total
	for i, w := range weights {
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func (p Profile) sampleVMType(rng *rand.Rand) cluster.VMType {
	weights := make([]float64, len(p.VMMix))
	for i, tw := range p.VMMix {
		weights[i] = tw.Weight
	}
	t := p.VMMix[pickWeighted(rng, weights)].Type
	if len(p.MemRatios) > 0 {
		ratio := p.MemRatioValues[pickWeighted(rng, p.MemRatios)]
		if ratio != 2 {
			t = cluster.MemoryIntensive(t, ratio)
		}
	}
	return t
}

// Fleet-scale generation: above bestFitScanCap PMs, a full best-fit scan per
// placement makes synthesizing a mapping quadratic (the hyperscale profile
// places ~90k VMs over 10k PMs), so candidates are sampled instead. Small
// profiles keep the exact full-permutation scan — and the exact rng stream —
// so every pre-existing dataset is byte-identical.
const (
	bestFitScanCap = 2048
	bestFitSamples = 128
)

// bestFitPlace places vm id using the VMS best-fit rule: among feasible PMs,
// pick the one whose 16-core fragment drops the most (equivalently, ends
// lowest) after adding the VM. Returns false when no PM fits. Candidates are
// scored with the O(1) cluster.PlaceFragDelta arithmetic — no probe
// placements. On clusters larger than bestFitScanCap PMs the scan is
// restricted to bestFitSamples random candidates (duplicates merely
// re-score), trading a marginally less tight pack for O(1)-per-placement
// generation at fleet scale.
func bestFitPlace(c *cluster.Cluster, id int, rng *rand.Rand) bool {
	bestPM, bestNuma, bestScore := -1, -1, 0
	consider := func(pm int) {
		numa := c.BestNuma(id, pm, cluster.DefaultFragCores)
		if numa < 0 {
			return
		}
		score := c.PlaceFragDelta(id, pm, numa, cluster.DefaultFragCores)
		if bestPM == -1 || score > bestScore {
			bestPM, bestNuma, bestScore = pm, numa, score
		}
	}
	if n := len(c.PMs); n > bestFitScanCap {
		for i := 0; i < bestFitSamples; i++ {
			consider(rng.Intn(n))
		}
	} else {
		// Random scan order breaks ties differently across mappings.
		for _, pm := range rng.Perm(n) {
			consider(pm)
		}
	}
	if bestPM < 0 {
		return false
	}
	if err := c.Place(id, bestPM, bestNuma); err != nil {
		return false
	}
	return true
}

// GenerateMapping synthesizes one VM-PM mapping for the profile:
//  1. fill: best-fit place VMs sampled from the mix until the (jittered)
//     target usage would be exceeded,
//  2. churn: remove a random ChurnFrac of the placed VMs (completed jobs),
//  3. refill: place new arrivals until the target usage is restored.
//
// The churn+refill phases scatter fragments across PMs exactly the way the
// continual VMS/exit cycle does in production (paper section 1).
func (p Profile) GenerateMapping(rng *rand.Rand) *cluster.Cluster {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c := &cluster.Cluster{}
	weights := make([]float64, len(p.PMTypes))
	for i := range p.PMTypes {
		weights[i] = p.PMTypes[i].Weight
	}
	c.PMs = make([]cluster.PM, p.NumPMs)
	for i := range c.PMs {
		pt := p.PMTypes[pickWeighted(rng, weights)].Type
		c.PMs[i].ID = i
		for j := range c.PMs[i].Numas {
			c.PMs[i].Numas[j] = cluster.Numa{CPUCap: pt.CPUPerNuma, MemCap: pt.MemPerNuma}
		}
	}
	target := p.TargetUsage + (rng.Float64()*2-1)*p.UsageJitter
	if target > 0.95 {
		target = 0.95
	}
	// Track usage incrementally: total capacity is fixed after PM creation
	// and FreeCPU is an O(1) aggregate, so the fill loop never rescans the
	// fleet (a rescan would cost O(PMs) per placement).
	capTotal := 0
	for i := range c.PMs {
		capTotal += c.PMs[i].CPUCap()
	}
	fill := func(level float64) {
		misses := 0
		for float64(capTotal-c.FreeCPU())/float64(capTotal) < level && misses < 20 {
			id := c.AddVM(p.sampleVMType(rng))
			if !bestFitPlace(c, id, rng) {
				// Drop the VM record; it stays unplaced and is pruned below.
				misses++
			}
		}
	}
	// Overfill slightly, churn, then refill to the target so fragments exist.
	fill(target)
	placed := make([]int, 0, len(c.VMs))
	for i := range c.VMs {
		if c.VMs[i].Placed() {
			placed = append(placed, i)
		}
	}
	rng.Shuffle(len(placed), func(i, j int) { placed[i], placed[j] = placed[j], placed[i] })
	exits := int(float64(len(placed)) * p.ChurnFrac)
	for _, id := range placed[:exits] {
		if err := c.Remove(id); err != nil {
			panic(err)
		}
	}
	fill(target)
	return compact(c)
}

// compact rebuilds the cluster keeping only placed VMs with dense ids.
func compact(c *cluster.Cluster) *cluster.Cluster {
	out := &cluster.Cluster{PMs: make([]cluster.PM, len(c.PMs))}
	for i := range c.PMs {
		out.PMs[i] = c.PMs[i]
		out.PMs[i].VMs = nil
	}
	for i := range c.VMs {
		v := c.VMs[i]
		if !v.Placed() {
			continue
		}
		id := len(out.VMs)
		v.ID = id
		out.VMs = append(out.VMs, v)
		out.PMs[v.PM].VMs = append(out.PMs[v.PM].VMs, id)
	}
	return out
}

// Generate builds a dataset of n mappings split 10:1:1 (train:val:test),
// mirroring the paper's 4000/200/200 proportions.
func (p Profile) Generate(rng *rand.Rand, n int) *Dataset {
	maps := make([]*cluster.Cluster, n)
	for i := range maps {
		maps[i] = p.GenerateMapping(rng)
	}
	return NewDataset(p.Name, maps)
}

// NewDataset splits pre-generated mappings 10:1:1 (train:val:test) under a
// profile name — the entry point for mappings built outside Generate (e.g.
// scenario builders that add fragmentation floors or affinity overlays).
func NewDataset(profile string, maps []*cluster.Cluster) *Dataset {
	n := len(maps)
	nVal := n / 12
	if nVal < 1 {
		nVal = 1
	}
	nTest := nVal
	nTrain := n - nVal - nTest
	if nTrain < 1 {
		nTrain = 1
		if n >= 2 {
			nVal, nTest = (n-1+1)/2, (n-1)/2
		}
	}
	d := &Dataset{Profile: profile}
	d.Train = maps[:nTrain]
	d.Val = maps[nTrain : nTrain+nVal]
	d.Test = maps[nTrain+nVal:]
	return d
}

// AttachAffinity overlays synthetic anti-affinity services on a mapping.
// level controls service sizes: each service groups approximately
// (level*M/100)+2 VMs, so higher levels yield higher affinity ratios (paper
// Table 2 reports the resulting ratio, i.e. the mean fraction of VMs a given
// VM conflicts with). level 0 leaves every VM unconstrained. The overlay
// respects the current placement: VMs already colocated stay in distinct
// services so the initial state is feasible. Returns the achieved ratio.
func AttachAffinity(c *cluster.Cluster, level int, rng *rand.Rand) float64 {
	for i := range c.VMs {
		c.VMs[i].Service = -1
	}
	if level <= 0 {
		c.EnableAntiAffinity()
		return 0
	}
	m := len(c.VMs)
	size := level*m/100 + 2
	if size > m {
		size = m
	}
	order := rng.Perm(m)
	service := 0
	members := 0
	onPM := map[int]map[int]bool{} // service -> set of PMs used
	for _, id := range order {
		v := &c.VMs[id]
		if onPM[service] == nil {
			onPM[service] = map[int]bool{}
		}
		// Keep initial feasibility: skip VMs whose PM already hosts this
		// service; they fall into the next service.
		if v.Placed() && onPM[service][v.PM] {
			continue
		}
		v.Service = service
		if v.Placed() {
			onPM[service][v.PM] = true
		}
		members++
		if members >= size {
			service++
			members = 0
		}
	}
	c.EnableAntiAffinity()
	// Achieved ratio: mean over VMs of conflicting peers / (M-1).
	counts := map[int]int{}
	for i := range c.VMs {
		if s := c.VMs[i].Service; s >= 0 {
			counts[s]++
		}
	}
	total := 0.0
	for i := range c.VMs {
		if s := c.VMs[i].Service; s >= 0 {
			total += float64(counts[s]-1) / float64(m-1)
		}
	}
	return total / float64(m)
}

// UsageCDF returns per-PM CPU usage sorted ascending — the data behind the
// workload CDFs of paper Fig. 15.
func UsageCDF(maps []*cluster.Cluster) []float64 {
	var out []float64
	for _, c := range maps {
		for i := range c.PMs {
			out = append(out, c.PMs[i].CPUUsage())
		}
	}
	sort.Float64s(out)
	return out
}

// GenerateFragmented samples mappings until one reaches a 16-core fragment
// rate of at least minFR (up to maxTries), returning the most fragmented
// mapping seen. Useful for demos and tests that need visible rescheduling
// headroom; plain Generate reflects the natural FR distribution.
func (p Profile) GenerateFragmented(rng *rand.Rand, minFR float64, maxTries int) *cluster.Cluster {
	best := p.GenerateMapping(rng)
	bestFR := best.FragRate(cluster.DefaultFragCores)
	for try := 1; try < maxTries && bestFR < minFR; try++ {
		c := p.GenerateMapping(rng)
		if fr := c.FragRate(cluster.DefaultFragCores); fr > bestFR {
			best, bestFR = c, fr
		}
	}
	return best
}
