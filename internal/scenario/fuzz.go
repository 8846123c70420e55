package scenario

import (
	"fmt"
	"math/rand"

	"vmr2l/internal/sched"
)

// RandomScenario random-walks the declarative spec space: churn shape and
// rate, anti-affinity level, MNL, and failure dynamics (healthy fleets,
// crash storms, rolling maintenance, or both) are all drawn from rng. Every
// returned scenario passes Validate; the point is to feed the serving-loop
// invariant checks shapes nobody hand-picked.
func RandomScenario(rng *rand.Rand) Scenario {
	shapes := []Shape{Static, Diurnal, Flat, Burst, Drain}
	d := DynamicsSpec{Shape: shapes[rng.Intn(len(shapes))]}
	switch d.Shape {
	case Diurnal, Flat, Drain:
		d.Rate = 0.5 + rng.Float64()*5
	case Burst:
		d.Rate = 5 + rng.Float64()*20
		d.Base = rng.Float64() * 2
		d.BurstStart = rng.Intn(20)
		d.BurstLen = 1 + rng.Intn(20)
	}
	if d.Shape != Static && d.Shape != Drain && rng.Intn(2) == 0 {
		d.ArriveFrac = 0.2 + rng.Float64()*0.6
	}
	// Two thirds of the walk degrades the fleet.
	switch rng.Intn(3) {
	case 1: // crash storm
		d.Failures = sched.FailureSpec{
			CrashRate:      0.02 + rng.Float64()*0.2,
			RecoverAfter:   5 + rng.Intn(30),
			EvacDeadline:   1 + rng.Intn(15),
			EvacPerMinute:  1 + rng.Intn(32),
			MaxUnavailFrac: 0.25 + rng.Float64()*0.5,
		}
	case 2: // rolling maintenance, sometimes with crashes on top
		d.Failures = sched.FailureSpec{
			MaintenanceEvery: 5 + rng.Intn(30),
			DrainDuration:    rng.Intn(15),
			EvacDeadline:     1 + rng.Intn(15),
			EvacPerMinute:    1 + rng.Intn(32),
		}
		if rng.Intn(2) == 0 {
			d.Failures.CrashRate = rng.Float64() * 0.1
			d.Failures.RecoverAfter = 10 + rng.Intn(20)
			d.Failures.MaxUnavailFrac = 0.5
		}
	}
	profiles := []string{"tiny", "workload-low-small", "workload-mid-small"}
	return Scenario{
		Name:          fmt.Sprintf("fuzz-%08x", rng.Uint32()),
		Description:   "randomized spec from scenario.RandomScenario",
		Profile:       profiles[rng.Intn(len(profiles))],
		AffinityLevel: rng.Intn(4),
		Objective:     "fr16",
		MNL:           4 + rng.Intn(12),
		Seed:          int64(rng.Uint32()),
		Dynamics:      d,
	}
}
