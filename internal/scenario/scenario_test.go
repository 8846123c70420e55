package scenario

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vmr2l/internal/sim"
)

func TestRegistryScenariosBuildValidClusters(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("registry has %d scenarios, want >= 5: %v", len(names), names)
	}
	for _, name := range names {
		s := MustGet(name)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		rng := rand.New(rand.NewSource(s.Seed))
		c, err := s.Build(rng)
		if err != nil {
			t.Errorf("%s: build: %v", name, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: built cluster invalid: %v", name, err)
		}
		if s.AffinityLevel > 0 && !c.AntiAffinity {
			t.Errorf("%s: affinity level %d but constraint off", name, s.AffinityLevel)
		}
		if _, err := sim.ParseObjective(s.Objective); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(s.Mix()) == 0 {
			t.Errorf("%s: empty VM mix", name)
		}
	}
}

func TestScenarioDynamicsShapes(t *testing.T) {
	for _, name := range Names() {
		s := MustGet(name)
		rng := rand.New(rand.NewSource(2))
		c, err := s.Build(rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		placedBefore := c.CountPlaced()
		d := s.Dynamics.NewDynamics(c, rng, s.Mix())
		st := d.Advance(20)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s after 20 min: %v", name, err)
		}
		switch s.Dynamics.Shape {
		case Static, "":
			if st.Events != 0 {
				t.Errorf("%s: static scenario produced %d events", name, st.Events)
			}
		case Drain:
			if st.Arrivals != 0 {
				t.Errorf("%s: drain produced %d arrivals", name, st.Arrivals)
			}
			if c.CountPlaced() >= placedBefore {
				t.Errorf("%s: drain did not shrink the cluster", name)
			}
		default:
			if st.Events == 0 {
				t.Errorf("%s: dynamic scenario produced no events in 20 min", name)
			}
		}
	}
}

func TestBurstScenarioPeaksInWindow(t *testing.T) {
	s := MustGet("burst")
	r := s.Dynamics.RateFunc()
	inside := r(s.Dynamics.BurstStart)
	outside := r(s.Dynamics.BurstStart + s.Dynamics.BurstLen)
	if inside <= outside {
		t.Fatalf("burst rate %v inside window not above base %v", inside, outside)
	}
}

func TestGetUnknownScenario(t *testing.T) {
	if _, err := Get("no-such"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRegistryConcurrentRegisterAndList registers scenarios from several
// goroutines while others list and look up — the runtime Register racing
// GET /v2/scenarios and session creation. Run under -race -count=10; the
// registrations are removed again so repeated runs start from the built-ins.
func TestRegistryConcurrentRegisterAndList(t *testing.T) {
	const writers, perWriter = 4, 8
	name := func(w, i int) string { return fmt.Sprintf("concurrent-%d-%d", w, i) }
	t.Cleanup(func() {
		registryMu.Lock()
		defer registryMu.Unlock()
		for w := 0; w < writers; w++ {
			for i := 0; i < perWriter; i++ {
				delete(registry, name(w, i))
			}
		}
	})
	builtins := len(Names())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s := MustGet("static")
				s.Name = name(w, i)
				if err := Register(s); err != nil {
					t.Error(err)
				}
				if _, err := Get(s.Name); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if n, a := len(Names()), len(All()); n < builtins || a < builtins {
					t.Errorf("listing lost scenarios: %d names, %d scenarios, %d built in", n, a, builtins)
				}
				if _, err := Get("no-such"); err == nil {
					t.Error("unknown scenario accepted")
				}
			}
		}()
	}
	wg.Wait()
	if got := len(Names()); got != builtins+writers*perWriter {
		t.Fatalf("%d scenarios registered, want %d", got, builtins+writers*perWriter)
	}
	if err := Register(MustGet(name(0, 0))); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	good := MustGet("diurnal")
	cases := []func(*Scenario){
		func(s *Scenario) { s.Profile = "no-such-profile" },
		func(s *Scenario) { s.Objective = "bogus" },
		func(s *Scenario) { s.Dynamics.Shape = "sawtooth" },
		func(s *Scenario) { s.Dynamics.Rate = -1 },
		func(s *Scenario) { s.Dynamics.ArriveFrac = 2 },
		func(s *Scenario) { s.MNL = -1 },
		func(s *Scenario) { s.Name = "" },
	}
	for i, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad scenario accepted", i)
		}
	}
}

func TestMemoryIntensiveUsesMixedObjective(t *testing.T) {
	s := MustGet("memory-intensive")
	obj, err := sim.ParseObjective(s.Objective)
	if err != nil {
		t.Fatal(err)
	}
	hasMem := false
	for _, term := range obj.Terms {
		if term.Res == sim.Mem {
			hasMem = true
		}
	}
	if !hasMem {
		t.Fatal("memory-intensive scenario objective has no memory term")
	}
}
