// Package trace generates and serializes VM-PM mapping datasets.
//
// The paper evaluates on proprietary ByteDance traces (Medium: up to 2089
// VMs / 280 PMs; Large: up to 4546 VMs / 1176 PMs; a Multi-Resource cluster;
// and Low/Mid/High workload variants). Those traces are unavailable, so this
// package synthesizes statistically equivalent mappings: VMs drawn from the
// paper's Table 1 type mix are placed by best-fit onto empty PMs, then a
// random subset exits — exactly the anonymization procedure the paper itself
// applies before release ("randomly removing some of the existing VMs and
// redeploying"). Scaled-down profiles (suffix "-small") keep the same shape
// at CI-friendly sizes.
package trace

import (
	"fmt"

	"vmr2l/internal/cluster"
)

// TypeWeight pairs a VM flavor with its sampling weight.
type TypeWeight struct {
	Type   cluster.VMType
	Weight float64
}

// Profile parameterizes a synthetic dataset.
type Profile struct {
	Name   string
	NumPMs int
	// PMTypes with weights; most clusters are homogeneous.
	PMTypes []struct {
		Type   cluster.PMType
		Weight float64
	}
	// VMMix is the flavor distribution of arriving VMs.
	VMMix []TypeWeight
	// TargetUsage is the mean fraction of cluster CPU in use after
	// generation (the "workload" of paper Fig. 15). UsageJitter spreads
	// per-mapping usage uniformly in ±UsageJitter around the target.
	TargetUsage float64
	UsageJitter float64
	// ChurnFrac is the fraction of placed VMs that exit after the fill
	// phase, creating the scattered fragments rescheduling must fix.
	ChurnFrac float64
	// MemRatios, when non-empty, gives weights for CPU:Mem ratios beyond
	// the standard 1:2 (Multi-Resource dataset, section 5.4). Entry i is
	// the weight of ratio MemRatioValues[i].
	MemRatios      []float64
	MemRatioValues []int
}

// skewedMix weights small flavors higher, matching production clusters where
// proxies and monitors dominate counts while 4xlarge dominates capacity.
func skewedMix(weights map[string]float64) []TypeWeight {
	mix := make([]TypeWeight, 0, len(weights))
	for _, t := range cluster.StandardTypes {
		if w, ok := weights[t.Name]; ok {
			mix = append(mix, TypeWeight{Type: t, Weight: w})
		}
	}
	return mix
}

func homogeneous(pt cluster.PMType) []struct {
	Type   cluster.PMType
	Weight float64
} {
	return []struct {
		Type   cluster.PMType
		Weight float64
	}{{Type: pt, Weight: 1}}
}

// The paper's Medium cluster: 280 PMs, up to 2089 VMs, high workload (the
// "High" level of Table 5). VM:PM ratio ~7.5.
func mediumProfile(pms int, usage float64) Profile {
	return Profile{
		Name:   "medium",
		NumPMs: pms,
		PMTypes: homogeneous(cluster.PMType{
			Name: "pm-128c256g", CPUPerNuma: 64, MemPerNuma: 128,
		}),
		VMMix: skewedMix(map[string]float64{
			"large": 30, "xlarge": 25, "2xlarge": 18, "4xlarge": 15,
			"8xlarge": 8, "16xlarge": 3, "22xlarge": 1,
		}),
		TargetUsage: usage,
		UsageJitter: 0.03,
		ChurnFrac:   0.25,
	}
}

// The paper's Large cluster: 1176 PMs, 4546 VMs. Lower VM:PM ratio but larger
// average VM sizes (paper footnote 10) — and also more small VMs in absolute
// terms (section 5.7 hypothesizes smaller VMs are easier to move).
func largeProfile(pms int) Profile {
	return Profile{
		Name:   "large",
		NumPMs: pms,
		PMTypes: homogeneous(cluster.PMType{
			Name: "pm-176c352g", CPUPerNuma: 88, MemPerNuma: 176,
		}),
		VMMix: skewedMix(map[string]float64{
			"large": 35, "xlarge": 20, "2xlarge": 12, "4xlarge": 12,
			"8xlarge": 12, "16xlarge": 6, "22xlarge": 3,
		}),
		TargetUsage: 0.62,
		UsageJitter: 0.04,
		ChurnFrac:   0.25,
	}
}

// Profiles returns the named dataset profile. Available names:
//
//	medium, large, hyperscale, multi-resource, workload-low, workload-mid,
//	workload-high, medium-small, large-small, multi-resource-small,
//	workload-low-small, workload-mid-small, tiny
//
// The "-small" variants shrink PM counts ~10x for CPU-only experimentation;
// "tiny" is a unit-test scale; "hyperscale" (10k PMs, ~90k VMs) is the
// fleet-sized input of the scale-out solving scenarios (internal/shard) —
// far beyond the paper's Large dataset, sized so that only sharded solving
// sweeps it inside a deadline.
func Profiles(name string) (Profile, error) {
	switch name {
	case "medium":
		return mediumProfile(280, 0.78), nil
	case "hyperscale":
		p := mediumProfile(10000, 0.78)
		p.Name = "hyperscale"
		p.UsageJitter = 0.02
		return p, nil
	case "medium-small":
		p := mediumProfile(28, 0.78)
		p.Name = "medium-small"
		return p, nil
	case "tiny":
		p := mediumProfile(6, 0.72)
		p.Name = "tiny"
		return p, nil
	case "large":
		return largeProfile(1176), nil
	case "large-small":
		p := largeProfile(60)
		p.Name = "large-small"
		return p, nil
	case "multi-resource", "multi-resource-small":
		pms := 120
		if name == "multi-resource-small" {
			pms = 20
		}
		return Profile{
			Name:   name,
			NumPMs: pms,
			PMTypes: []struct {
				Type   cluster.PMType
				Weight float64
			}{
				{Type: cluster.PMSmall, Weight: 1},
				{Type: cluster.PMBig, Weight: 1},
			},
			VMMix: skewedMix(map[string]float64{
				"large": 28, "xlarge": 24, "2xlarge": 20, "4xlarge": 16,
				"8xlarge": 8, "16xlarge": 4,
			}),
			TargetUsage:    0.70,
			UsageJitter:    0.04,
			ChurnFrac:      0.25,
			MemRatios:      []float64{6, 2, 1, 1},
			MemRatioValues: []int{2, 4, 6, 8},
		}, nil
	case "workload-low", "workload-low-small":
		p := mediumProfile(280, 0.45)
		if name == "workload-low-small" {
			p.NumPMs = 28
		}
		p.Name = name
		p.UsageJitter = 0.05
		return p, nil
	case "workload-mid", "workload-mid-small":
		p := mediumProfile(280, 0.62)
		if name == "workload-mid-small" {
			p.NumPMs = 28
		}
		p.Name = name
		p.UsageJitter = 0.04
		return p, nil
	case "workload-high":
		p := mediumProfile(280, 0.78)
		p.Name = name
		return p, nil
	default:
		return Profile{}, fmt.Errorf("trace: unknown profile %q", name)
	}
}

// MustProfile is Profiles for known-good names; it panics on error.
func MustProfile(name string) Profile {
	p, err := Profiles(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Validate checks that the profile can actually be sampled from: at least
// one PM type and one VM flavor, every weight vector non-negative with a
// positive sum, and matched MemRatios/MemRatioValues lengths. Construction
// sites (scenario specs, hand-built profiles) should call this before
// generating; GenerateMapping enforces it with a panic so a bad vector can
// never silently skew a dataset.
func (p Profile) Validate() error {
	if p.NumPMs <= 0 {
		return fmt.Errorf("trace: profile %q: NumPMs must be positive, got %d", p.Name, p.NumPMs)
	}
	check := func(what string, weights []float64) error {
		if len(weights) == 0 {
			return fmt.Errorf("trace: profile %q: empty %s", p.Name, what)
		}
		total := 0.0
		for i, w := range weights {
			if w < 0 {
				return fmt.Errorf("trace: profile %q: negative %s weight %v at index %d", p.Name, what, w, i)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("trace: profile %q: %s weights sum to %v; at least one must be positive", p.Name, what, total)
		}
		return nil
	}
	pmw := make([]float64, len(p.PMTypes))
	for i := range p.PMTypes {
		pmw[i] = p.PMTypes[i].Weight
	}
	if err := check("pm-type", pmw); err != nil {
		return err
	}
	vmw := make([]float64, len(p.VMMix))
	for i, tw := range p.VMMix {
		vmw[i] = tw.Weight
	}
	if err := check("vm-mix", vmw); err != nil {
		return err
	}
	if len(p.MemRatios) > 0 {
		if len(p.MemRatios) != len(p.MemRatioValues) {
			return fmt.Errorf("trace: profile %q: %d MemRatios but %d MemRatioValues",
				p.Name, len(p.MemRatios), len(p.MemRatioValues))
		}
		if err := check("mem-ratio", p.MemRatios); err != nil {
			return err
		}
	}
	return nil
}
