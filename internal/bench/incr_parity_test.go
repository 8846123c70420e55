package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vmr2l/internal/policy"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sim"
)

// Incremental-inference parity: on every registry scenario, a greedy episode
// driven by an incremental context (policy.InferCtx.SetIncremental) must pick
// the identical action at every step as a plain context, in float and int8.
// The step cache is bit-exact, so the two are one episode. Every forward is
// counted as a hit, miss or fallback. Fleet-scale scenarios (10k PMs) run on
// one extracted shard whose label says so: the full-path reference at 10k
// PMs costs minutes per episode.

// incrParityResult is one scenario×variant exact-trajectory comparison.
type incrParityResult struct {
	Scenario string // registry name, "[shards..]"-suffixed when extracted
	Variant  string // extractor/numeric-path, e.g. "none/int8"
	PMs, VMs int
	Steps    int
	// Match is true when the incremental and plain contexts picked the same
	// (vm, pm) at every step and ended on the same fragment rate.
	Match   bool
	FinalFR float64
	// Cache outcome counters of the incremental context.
	Hits, Misses, Fallbacks uint64
}

// incrParitySteps caps the compared episode length per scenario.
const incrParitySteps = 24

// incrVariants are the model variants every registry scenario is swept
// with: the fully incremental extractor in both numeric paths, and the tree
// extractor (partial coverage: extract + embeddings + block-0 tree) in
// float.
var incrVariants = []struct {
	name      string
	extractor policy.ExtractorMode
	quantize  bool
}{
	{"none/float", policy.NoAttention, false},
	{"none/int8", policy.NoAttention, true},
	{"sparse/float", policy.SparseAttention, false},
}

// measureIncrParity plays twin greedy episodes — one incremental context,
// one plain — on identical mappings and compares every action. Fleet-scale
// scenarios play on the first parity shard (see quantParityClusters).
func measureIncrParity(sc scenario.Scenario, ex policy.ExtractorMode, quantize bool, variant string) (incrParityResult, error) {
	cs, label, err := quantParityClusters(sc)
	if err != nil {
		return incrParityResult{}, err
	}
	c := cs[0]
	obj, err := sc.ParseObjective()
	if err != nil {
		return incrParityResult{}, err
	}
	cfg := policy.DefaultConfig()
	cfg.Extractor = ex
	m := policy.New(cfg)
	if quantize && m.Quantize() == 0 {
		return incrParityResult{}, fmt.Errorf("model quantized no layers")
	}
	mnl := min(sc.MNL, incrParitySteps)
	envI := sim.New(c.Clone(), sim.Config{MNL: mnl, Obj: obj})
	envF := sim.New(c.Clone(), sim.Config{MNL: mnl, Obj: obj})
	icI, icF := policy.NewInferCtx(), policy.NewInferCtx()
	icI.SetIncremental(true)

	res := incrParityResult{Scenario: label, Variant: variant,
		PMs: len(c.PMs), VMs: len(c.VMs), Match: true}
	for !envI.Done() && !envF.Done() {
		vmI, pmI, errI := m.Infer(icI, envI, rand.New(rand.NewSource(1)), policy.SampleOpts{Greedy: true})
		vmF, pmF, errF := m.Infer(icF, envF, rand.New(rand.NewSource(1)), policy.SampleOpts{Greedy: true})
		if (errI != nil) != (errF != nil) || vmI != vmF || pmI != pmF {
			res.Match = false
			break
		}
		if errI != nil {
			break
		}
		if _, _, err := envI.Step(vmI, pmI); err != nil {
			return res, err
		}
		if _, _, err := envF.Step(vmF, pmF); err != nil {
			return res, err
		}
		res.Steps++
	}
	if envI.FragRate() != envF.FragRate() {
		res.Match = false
	}
	res.FinalFR = envI.FragRate()
	st := icI.IncrStats()
	res.Hits, res.Misses, res.Fallbacks = st.Hits, st.Misses, st.Fallbacks
	return res, nil
}

// TestIncrParityEveryScenario is the incremental-inference gate: on every
// registry scenario and variant the incremental trajectory equals the full
// recompute, and the cache counters account for every forward — one Infer
// per step, plus at most one final Infer that ended the episode (no
// migratable VM).
func TestIncrParityEveryScenario(t *testing.T) {
	for _, sc := range parityScenarios(t) {
		for _, v := range incrVariants {
			t.Run(sc.Name+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				pr, err := measureIncrParity(sc, v.extractor, v.quantize, v.name)
				if err != nil {
					t.Fatal(err)
				}
				if !pr.Match {
					t.Errorf("%s: incremental trajectory diverged from full recompute: %+v", pr.Scenario, pr)
				}
				if pr.Steps == 0 {
					t.Errorf("%s: parity episode took no steps", pr.Scenario)
				}
				sum := pr.Hits + pr.Misses + pr.Fallbacks
				if sum < uint64(pr.Steps) || sum > uint64(pr.Steps)+1 {
					t.Errorf("%s: counters (%d+%d+%d) don't cover %d steps (silent loss)",
						pr.Scenario, pr.Hits, pr.Misses, pr.Fallbacks, pr.Steps)
				}
			})
		}
	}
}

// TestIncrParityDeterministic pins that the parity measurement is exactly
// reproducible: the step cache is bit-exact and the drivers are seeded, so
// nothing in the compared trajectories is timing-dependent.
func TestIncrParityDeterministic(t *testing.T) {
	sc := scenario.MustGet("static")
	a, err := measureIncrParity(sc, policy.NoAttention, false, "none/float")
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureIncrParity(sc, policy.NoAttention, false, "none/float")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("parity measurement not deterministic:\n%+v\n%+v", a, b)
	}
	if !a.Match {
		t.Fatalf("incremental trajectory diverged on static: %+v", a)
	}
	if a.Steps == 0 {
		t.Fatal("parity episode took no steps")
	}
}

// TestIncrParityShardsHyperscale pins the no-silent-caps contract for the
// incremental suite: fleet-scale scenarios come back labeled as
// shard-extracted, never silently down-sampled under the registry name.
func TestIncrParityShardsHyperscale(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperscale build is slow")
	}
	sc := scenario.MustGet("large-static")
	pr, err := measureIncrParity(sc, policy.NoAttention, false, "none/float")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pr.Scenario, "[shards") {
		t.Fatalf("fleet-scale parity label %q does not declare shard extraction", pr.Scenario)
	}
	if pr.PMs > quantParityMaxPMs {
		t.Fatalf("parity replica has %d PMs, above the %d bound", pr.PMs, quantParityMaxPMs)
	}
	if !pr.Match {
		t.Fatalf("incremental trajectory diverged on the extracted shard: %+v", pr)
	}
}

// TestIncrRandomScenarioStreamParity fuzzes the step cache against
// scenario.RandomScenario specs: twin greedy episodes — one incremental
// context, one plain — run on twin clusters while each scenario's own
// dynamics engine (churn, crashes, drains, evacuations) mutates both live
// clusters between steps through identically seeded event streams. Every
// action must agree. This reaches the invalidation edges the registry sweep
// cannot: VM arrivals reshape the row space, health transitions and
// evacuations dirty rows through the cluster journal rather than env.Step,
// and mid-episode Reset and Fork must reprime cleanly.
func TestIncrRandomScenarioStreamParity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var totalHits uint64
	for n := 0; n < 6; n++ {
		sc := scenario.RandomScenario(rng)
		ex := policy.NoAttention
		if n%3 == 2 {
			ex = policy.SparseAttention
		}
		quantize := n%2 == 1
		t.Run(fmt.Sprintf("%s/ex%d/q%v", sc.Name, ex, quantize), func(t *testing.T) {
			obj, err := sc.ParseObjective()
			if err != nil {
				t.Fatal(err)
			}
			c, err := sc.Build(rand.New(rand.NewSource(sc.Seed)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := policy.DefaultConfig()
			cfg.Extractor = ex
			m := policy.New(cfg)
			if quantize && m.Quantize() == 0 {
				t.Fatal("model quantized no layers")
			}
			envI := sim.New(c, sim.Config{MNL: 64, Obj: obj})
			envF := sim.New(c, sim.Config{MNL: 64, Obj: obj})
			dynI := sc.NewDynamics(envI.Cluster(), rand.New(rand.NewSource(sc.Seed+1)))
			dynF := sc.NewDynamics(envF.Cluster(), rand.New(rand.NewSource(sc.Seed+1)))
			icI, icF := policy.NewInferCtx(), policy.NewInferCtx()
			icI.SetIncremental(true)
			for step := 0; step < 24; step++ {
				if step > 0 && step%3 == 0 {
					dynI.Advance(1)
					dynF.Advance(1)
					if envI.FragRate() != envF.FragRate() {
						t.Fatalf("step %d: twin dynamics diverged before inference", step)
					}
				}
				if step == 12 {
					envI.Reset()
					envF.Reset()
				}
				vmI, pmI, errI := m.Infer(icI, envI,
					rand.New(rand.NewSource(int64(step))), policy.SampleOpts{Greedy: true})
				vmF, pmF, errF := m.Infer(icF, envF,
					rand.New(rand.NewSource(int64(step))), policy.SampleOpts{Greedy: true})
				if (errI != nil) != (errF != nil) || vmI != vmF || pmI != pmF {
					t.Fatalf("step %d: incremental (%d,%d,%v) != full (%d,%d,%v)",
						step, vmI, pmI, errI, vmF, pmF, errF)
				}
				if errI != nil {
					break // no migratable VM under this churn state: both agree
				}
				if _, _, err := envI.Step(vmI, pmI); err != nil {
					t.Fatal(err)
				}
				if _, _, err := envF.Step(vmF, pmF); err != nil {
					t.Fatal(err)
				}
				if step == 8 {
					// Fork edge: a fresh incremental context priming on a
					// mid-episode fork must agree with the plain context too.
					fI, fF := envI.Fork(), envF.Fork()
					icFork := policy.NewInferCtx()
					icFork.SetIncremental(true)
					fvI, fpI, feI := m.Infer(icFork, fI,
						rand.New(rand.NewSource(99)), policy.SampleOpts{Greedy: true})
					fvF, fpF, feF := m.Infer(icF, fF,
						rand.New(rand.NewSource(99)), policy.SampleOpts{Greedy: true})
					if (feI != nil) != (feF != nil) || fvI != fvF || fpI != fpF {
						t.Fatalf("fork: incremental (%d,%d,%v) != full (%d,%d,%v)",
							fvI, fpI, feI, fvF, fpF, feF)
					}
					fI.Release()
					fF.Release()
				}
			}
			st := icI.IncrStats()
			if st.Hits+st.Misses+st.Fallbacks == 0 {
				t.Fatalf("incremental path never ran: %+v", st)
			}
			totalHits += st.Hits
		})
	}
	// Small fuzz clusters can legitimately fall back often (the dirty
	// fraction is large), but across six scenarios the fast path must land.
	if totalHits == 0 {
		t.Fatal("no random-scenario stream ever hit the cache")
	}
}
