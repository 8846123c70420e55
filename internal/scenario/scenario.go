// Package scenario defines the declarative workload scenarios the serving
// and benchmarking stack runs against: a Scenario names a trace profile, a
// cluster-dynamics shape (the live churn of paper Fig. 1/Fig. 5), an
// anti-affinity level and an objective, all under one seed. The registry of
// named scenarios (static, diurnal, burst, drain, memory-intensive) replaces
// the ad-hoc flag plumbing previously spread across cmd/vmr2l-bench,
// cmd/vmr2l-datagen and the examples: every consumer builds the same cluster
// and the same Dynamics engine from the same spec.
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sched"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// Shape selects the rate curve of a scenario's dynamics.
type Shape string

// Dynamics shapes. Static means no churn at all: the scenario degenerates to
// the frozen-snapshot setting of the core experiments.
const (
	Static  Shape = "static"
	Diurnal Shape = "diurnal"
	Flat    Shape = "constant"
	Burst   Shape = "burst"
	Drain   Shape = "drain"
)

// DynamicsSpec declares how the live cluster churns while plans are being
// computed.
type DynamicsSpec struct {
	// Shape selects the rate curve; zero value means Static.
	Shape Shape
	// Rate is the expected VM change events per minute: the diurnal peak
	// for Diurnal, the flat rate for Flat and Drain, the burst-window rate
	// for Burst.
	Rate float64
	// Base is the off-window rate for Burst (ignored otherwise).
	Base float64
	// BurstStart/BurstLen bound the Burst window in minutes.
	BurstStart, BurstLen int
	// ArriveFrac is the probability an event is an arrival; zero means the
	// 50/50 default except for Drain, which forces exits only.
	ArriveFrac float64
	// Failures declares PM failure dynamics (crashes, rolling maintenance,
	// evacuation deadlines) layered over the churn; the zero value leaves
	// the fleet healthy. See sched.FailureSpec.
	Failures sched.FailureSpec
}

// Scenario is a fully declarative experiment setup: everything needed to
// build an initial cluster, evolve it, and solve on it.
type Scenario struct {
	// Name is the registry key; Description a one-line summary for listings.
	Name        string
	Description string
	// Profile is the trace profile generating the initial mapping.
	Profile string
	// MinFR, when positive, resamples mappings until the 16-core fragment
	// rate reaches it (rescheduling headroom for demos and serving tests).
	MinFR float64
	// AffinityLevel overlays synthetic anti-affinity services (see
	// trace.AttachAffinity); 0 leaves VMs unconstrained.
	AffinityLevel int
	// Objective is the textual objective spec ("fr16", "mixed-mem:0.5", …).
	Objective string
	// MNL is the suggested migration number limit for solves.
	MNL int
	// Seed is the default seed when the consumer does not supply one.
	Seed int64
	// Dynamics declares the churn applied while plans are computed.
	Dynamics DynamicsSpec
}

// Validate checks the scenario is self-consistent and its profile exists
// and is sampleable.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	p, err := trace.Profiles(s.Profile)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if _, err := sim.ParseObjective(s.Objective); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.MNL < 0 {
		return fmt.Errorf("scenario %q: negative MNL %d", s.Name, s.MNL)
	}
	switch s.Dynamics.Shape {
	case "", Static, Diurnal, Flat, Burst, Drain:
	default:
		return fmt.Errorf("scenario %q: unknown dynamics shape %q", s.Name, s.Dynamics.Shape)
	}
	if s.Dynamics.Rate < 0 || s.Dynamics.Base < 0 {
		return fmt.Errorf("scenario %q: negative dynamics rate", s.Name)
	}
	if s.Dynamics.Shape == Burst && (s.Dynamics.BurstStart < 0 || s.Dynamics.BurstLen <= 0) {
		return fmt.Errorf("scenario %q: burst window [start %d, len %d] never fires",
			s.Name, s.Dynamics.BurstStart, s.Dynamics.BurstLen)
	}
	if f := s.Dynamics.ArriveFrac; f < 0 || f > 1 {
		return fmt.Errorf("scenario %q: ArriveFrac %v outside [0,1]", s.Name, f)
	}
	fs := s.Dynamics.Failures
	if fs.CrashRate < 0 {
		return fmt.Errorf("scenario %q: negative crash rate %v", s.Name, fs.CrashRate)
	}
	if fs.RecoverAfter < 0 || fs.EvacDeadline < 0 || fs.EvacPerMinute < 0 ||
		fs.MaintenanceEvery < 0 || fs.DrainDuration < 0 {
		return fmt.Errorf("scenario %q: negative failure-spec interval", s.Name)
	}
	if fs.MaxUnavailFrac < 0 || fs.MaxUnavailFrac > 1 {
		return fmt.Errorf("scenario %q: MaxUnavailFrac %v outside [0,1]", s.Name, fs.MaxUnavailFrac)
	}
	return nil
}

// Build generates the scenario's initial cluster from rng: profile mapping
// (resampled to MinFR when set) plus the affinity overlay.
func (s Scenario) Build(rng *rand.Rand) (*cluster.Cluster, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := trace.MustProfile(s.Profile)
	var c *cluster.Cluster
	if s.MinFR > 0 {
		c = p.GenerateFragmented(rng, s.MinFR, 20)
	} else {
		c = p.GenerateMapping(rng)
	}
	if s.AffinityLevel > 0 {
		trace.AttachAffinity(c, s.AffinityLevel, rng)
	}
	return c, nil
}

// Mix returns the arriving-VM flavor distribution of the scenario's profile
// (weights collapse to the flavor list; sampling weights stay with the
// profile's own generator).
func (s Scenario) Mix() []cluster.VMType {
	p := trace.MustProfile(s.Profile)
	mix := make([]cluster.VMType, 0, len(p.VMMix))
	for _, tw := range p.VMMix {
		if tw.Weight > 0 {
			mix = append(mix, tw.Type)
		}
	}
	return mix
}

// RateFunc returns the sched rate curve the spec declares (nil for Static).
func (d DynamicsSpec) RateFunc() sched.RateFunc {
	switch d.Shape {
	case Diurnal:
		return sched.Diurnal(d.Rate)
	case Flat, Drain:
		return sched.Constant(d.Rate)
	case Burst:
		return sched.Burst(d.Base, d.Rate, d.BurstStart, d.BurstLen)
	default:
		return nil
	}
}

// NewDynamics builds a churn engine over c exactly as the spec declares,
// with an explicit flavor mix. This is the declarative construction path the
// session snapshot codec restores through: the spec (embedded in a snapshot
// manifest) plus the mix fully determine the engine's configuration, with no
// registry lookup.
func (d DynamicsSpec) NewDynamics(c *cluster.Cluster, rng *rand.Rand, mix []cluster.VMType) *sched.Dynamics {
	dyn := sched.NewDynamics(c, rng, mix, d.RateFunc())
	if d.Shape == Drain {
		dyn.SetArriveFrac(0)
	} else if d.ArriveFrac > 0 {
		dyn.SetArriveFrac(d.ArriveFrac)
	}
	if d.Failures != (sched.FailureSpec{}) {
		dyn.SetFailures(d.Failures)
	}
	return dyn
}

// registry holds the built-in scenarios. Sizes use the "-small" profiles so
// every scenario runs in CI time; the shapes — not the absolute scale — are
// what the serving stack exercises. Churn scenarios sit on the mid-usage
// workload profile: at the high-usage profile the cluster is packed so
// tight that improving migrations barely exist, which makes every plan
// trivially empty and the repair path vacuous.
//
// registryMu guards the map: Register is callable at runtime while HTTP
// handlers (GET /v2/scenarios, session creation) read it.
var (
	registryMu sync.RWMutex
	registry   = map[string]Scenario{}
)

func register(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Register adds a scenario to the registry so it becomes addressable by name
// (GET /v2/scenarios, session creation, the bench sweeps). It validates the
// scenario and refuses duplicate names. The built-ins register at init; this
// exported path is for callers minting scenarios at runtime — e.g. fuzzed
// scenarios (RandomScenario) a test wants to serve over the session API.
func Register(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		return fmt.Errorf("scenario: duplicate registration %q", s.Name)
	}
	registry[s.Name] = s
	return nil
}

func init() {
	register(Scenario{
		Name:        "static",
		Description: "frozen snapshot, no churn — the core-experiment setting",
		Profile:     "workload-mid-small",
		MinFR:       0.10,
		Objective:   "fr16",
		MNL:         10,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Static},
	})
	register(Scenario{
		Name:        "diurnal",
		Description: "day-cycle churn of paper Fig. 1: midday peak, 04:00 trough",
		Profile:     "workload-mid-small",
		MinFR:       0.10,
		Objective:   "fr16",
		MNL:         10,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Diurnal, Rate: 4},
	})
	register(Scenario{
		Name:        "burst",
		Description: "deploy storm: 20 events/min for 10 minutes over a quiet base",
		Profile:     "workload-mid-small",
		MinFR:       0.10,
		Objective:   "fr16",
		MNL:         10,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Burst, Rate: 20, Base: 0.5, BurstStart: 2, BurstLen: 10},
	})
	register(Scenario{
		Name:        "drain",
		Description: "maintenance evacuation: exits only while plans are computed",
		Profile:     "workload-mid-small",
		MinFR:       0.08,
		Objective:   "fr16",
		MNL:         8,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Drain, Rate: 3},
	})
	register(Scenario{
		Name:          "memory-intensive",
		Description:   "multi-resource cluster with 1:4..1:8 memory VMs, mixed CPU+mem objective",
		Profile:       "multi-resource-small",
		MinFR:         0.08,
		AffinityLevel: 0,
		Objective:     "mixed-mem:0.5",
		MNL:           10,
		Seed:          1,
		Dynamics:      DynamicsSpec{Shape: Diurnal, Rate: 3},
	})
	// Fleet-scale entries for the scale-out solving layer (internal/shard):
	// sized so only sharded solving sweeps them inside a deadline. MinFR is
	// left 0 — resampling a 10k-PM mapping for a fragment floor would cost
	// minutes, and at ~90k VMs the churn phase alone leaves thousands of
	// fragmented cores to reschedule.
	register(Scenario{
		Name:        "large-static",
		Description: "fleet-scale frozen snapshot: 10k PMs / ~90k VMs for scale-out solving",
		Profile:     "hyperscale",
		Objective:   "fr16",
		MNL:         64,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Static},
	})
	register(Scenario{
		Name:        "hyperscale-diurnal",
		Description: "fleet-scale day-cycle churn: 10k PMs / ~90k VMs, 120 events/min at peak",
		Profile:     "hyperscale",
		Objective:   "fr16",
		MNL:         64,
		Seed:        1,
		Dynamics:    DynamicsSpec{Shape: Diurnal, Rate: 120},
	})
	// Failure scenarios for the robustness stack: the serving layer must
	// keep Validate clean, evacuate under deadline, and account every loss.
	register(Scenario{
		Name:        "pm-crash-storm",
		Description: "Poisson PM crashes under flat churn: evacuation-under-deadline stress",
		Profile:     "workload-mid-small",
		MinFR:       0.08,
		Objective:   "fr16",
		MNL:         8,
		Seed:        1,
		Dynamics: DynamicsSpec{
			Shape: Flat, Rate: 2,
			Failures: sched.FailureSpec{
				CrashRate:      0.08,
				RecoverAfter:   25,
				EvacDeadline:   10,
				EvacPerMinute:  16,
				MaxUnavailFrac: 0.4,
			},
		},
	})
	register(Scenario{
		Name:        "rolling-maintenance",
		Description: "one PM draining at a time on a fixed rotation, light churn",
		Profile:     "workload-mid-small",
		MinFR:       0.08,
		Objective:   "fr16",
		MNL:         8,
		Seed:        1,
		Dynamics: DynamicsSpec{
			Shape: Flat, Rate: 1,
			Failures: sched.FailureSpec{
				MaintenanceEvery: 20,
				DrainDuration:    10,
				EvacDeadline:     15,
				EvacPerMinute:    32,
			},
		},
	})
	register(Scenario{
		Name:          "affinity-diurnal",
		Description:   "diurnal churn under a level-4 anti-affinity overlay",
		Profile:       "workload-mid-small",
		MinFR:         0.10,
		AffinityLevel: 4,
		Objective:     "fr16",
		MNL:           10,
		Seed:          1,
		Dynamics:      DynamicsSpec{Shape: Diurnal, Rate: 4},
	})
}

// Get returns the named scenario.
func Get(name string) (Scenario, error) {
	registryMu.RLock()
	s, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	return s, nil
}

// MustGet is Get for known-good names; it panics on error.
func MustGet(name string) Scenario {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names lists the registered scenarios, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered scenario in Names order.
func All() []Scenario {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, n := range namesLocked() {
		out = append(out, registry[n])
	}
	return out
}
