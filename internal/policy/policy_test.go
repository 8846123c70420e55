package policy

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

func tinyEnv(seed int64, mnl int) *sim.Env {
	c := trace.MustProfile("tiny").GenerateMapping(rand.New(rand.NewSource(seed)))
	return sim.New(c, sim.DefaultConfig(mnl))
}

func testConfig(extractor ExtractorMode, action ActionMode) Config {
	return Config{DModel: 16, Hidden: 24, Blocks: 1, Extractor: extractor, Action: action, Seed: 7}
}

func TestParameterCountIndependentOfClusterSize(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	n := m.Params.Count()
	// Forward on two very different cluster sizes must work with the same
	// parameters (the paper's scalability claim, section 3.3).
	for _, seed := range []int64{1, 2} {
		env := tinyEnv(seed, 3)
		dec, err := m.Act(env, rand.New(rand.NewSource(1)), SampleOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.State.VM < 0 || dec.State.PM < 0 {
			t.Fatal("no action")
		}
	}
	bigger := trace.MustProfile("medium-small").GenerateMapping(rand.New(rand.NewSource(3)))
	env := sim.New(bigger, sim.DefaultConfig(3))
	if _, err := m.Act(env, rand.New(rand.NewSource(1)), SampleOpts{}); err != nil {
		t.Fatal(err)
	}
	if m.Params.Count() != n {
		t.Fatal("parameter count changed with cluster size")
	}
}

func TestTwoStageNeverSamplesIllegalAction(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	f := func(seed int64) bool {
		env := tinyEnv(seed, 6)
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for !env.Done() {
			dec, err := m.Act(env, rng, SampleOpts{})
			if err != nil {
				break
			}
			if !env.Cluster().CanHost(dec.State.VM, dec.State.PM) {
				t.Logf("illegal action sampled: vm %d pm %d", dec.State.VM, dec.State.PM)
				return false
			}
			if _, _, err := env.Step(dec.State.VM, dec.State.PM); err != nil {
				t.Logf("step rejected a two-stage action: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestAllExtractorAndActionModesForward(t *testing.T) {
	for _, ex := range []ExtractorMode{SparseAttention, VanillaAttention, NoAttention} {
		for _, ac := range []ActionMode{TwoStage, Penalty, FullMask} {
			m := New(testConfig(ex, ac))
			env := tinyEnv(11, 3)
			rng := rand.New(rand.NewSource(1))
			dec, err := m.Act(env, rng, SampleOpts{})
			if err != nil {
				t.Fatalf("extractor %d action %d: %v", ex, ac, err)
			}
			ev := m.Evaluate(nil, dec.State)
			if math.IsNaN(ev.LogProb.Scalar()) || math.IsNaN(ev.Value.Scalar()) || math.IsNaN(ev.Entropy.Scalar()) {
				t.Fatalf("extractor %d action %d: NaN in evaluation", ex, ac)
			}
			if ev.Entropy.Scalar() < -1e-9 {
				t.Fatalf("negative entropy: %v", ev.Entropy.Scalar())
			}
		}
	}
}

func TestEvaluateMatchesActLogProb(t *testing.T) {
	// The log-prob stored at collection must equal the recomputed log-prob
	// before any parameter update (PPO correctness precondition).
	for _, ac := range []ActionMode{TwoStage, Penalty, FullMask} {
		m := New(testConfig(SparseAttention, ac))
		env := tinyEnv(13, 4)
		rng := rand.New(rand.NewSource(5))
		dec, err := m.Act(env, rng, SampleOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ev := m.Evaluate(nil, dec.State)
		if math.Abs(ev.LogProb.Scalar()-dec.LogProb) > 1e-9 {
			t.Fatalf("action mode %d: Evaluate logp %v != Act logp %v", ac, ev.LogProb.Scalar(), dec.LogProb)
		}
		if math.Abs(ev.Value.Scalar()-dec.Value) > 1e-9 {
			t.Fatalf("action mode %d: value mismatch", ac)
		}
	}
}

func TestGreedyIsDeterministic(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	env1 := tinyEnv(17, 5)
	env2 := tinyEnv(17, 5)
	a1 := Agent{Model: m, Opts: SampleOpts{Greedy: true}, Seed: 1}
	a2 := Agent{Model: m, Opts: SampleOpts{Greedy: true}, Seed: 99} // seed must not matter
	if err := a1.Solve(context.Background(), env1); err != nil {
		t.Fatal(err)
	}
	if err := a2.Solve(context.Background(), env2); err != nil {
		t.Fatal(err)
	}
	p1, p2 := env1.Plan(), env2.Plan()
	if len(p1) != len(p2) {
		t.Fatalf("plans differ in length: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("greedy plans diverge at step %d", i)
		}
	}
}

func TestTreeGroups(t *testing.T) {
	// 2 PMs; VM0 on PM0, VM1 on PM1, VM2 on PM0, VM3 unplaced.
	host := []int{0, 1, 0, -1}
	seg := func(host []int, nPM int) *sim.Features {
		return &sim.Features{PM: make([][]float64, nPM), HostPM: host}
	}
	var gb groupBuf
	groups := gb.build([]*sim.Features{seg(host, 2)})
	// Stacked row ids: PM0=0, PM1=1, VM0=2, VM1=3, VM2=4, VM3=5.
	want := [][]int{{0, 2, 4}, {1, 3}, {5}}
	if len(groups) != len(want) {
		t.Fatalf("got %d groups, want %d: %v", len(groups), len(want), groups)
	}
	for gi := range want {
		if len(groups[gi]) != len(want[gi]) {
			t.Fatalf("group %d = %v, want %v", gi, groups[gi], want[gi])
		}
		for j := range want[gi] {
			if groups[gi][j] != want[gi][j] {
				t.Fatalf("group %d = %v, want %v", gi, groups[gi], want[gi])
			}
		}
	}
	// The partition must cover every row exactly once.
	seen := map[int]bool{}
	for _, g := range groups {
		for _, r := range g {
			if seen[r] {
				t.Fatalf("row %d in two groups", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != 2+len(host) {
		t.Fatalf("partition covers %d of %d rows", len(seen), 2+len(host))
	}
	// Rebuild with a different shape reuses buffers without corruption, and
	// a second segment's groups are shifted by the first's 6 rows.
	// Stacked row ids: PM0=0, PM1=1, PM2=2, VM0=3, VM1=4, VM2=5 | PM0=6, VM0=7.
	groups = gb.build([]*sim.Features{seg([]int{1, -1, 1}, 3), seg([]int{0}, 1)})
	want = [][]int{{0}, {1, 3, 5}, {2}, {4}, {6, 7}}
	if len(groups) != len(want) {
		t.Fatalf("rebuild: got %v, want %v", groups, want)
	}
	for gi := range want {
		for j := range want[gi] {
			if groups[gi][j] != want[gi][j] {
				t.Fatalf("rebuild group %d = %v, want %v", gi, groups[gi], want[gi])
			}
		}
	}
}

func TestThresholdingMasksLowProbability(t *testing.T) {
	probs := []float64{0.5, 0.3, 0.1, 0.05, 0.03, 0.02}
	applyThresholdBuf(nil, probs, nil, 0.5) // keep top half
	if probs[4] != 0 || probs[5] != 0 {
		t.Fatalf("low-prob entries not masked: %v", probs)
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("thresholded distribution sums to %v", sum)
	}
}

func TestThresholdingDegenerateKeepsDistribution(t *testing.T) {
	probs := []float64{0.5, 0.5}
	mask := []bool{false, false} // nothing legal
	applyThresholdBuf(nil, probs, mask, 0.99)
	if probs[0] != 0.5 || probs[1] != 0.5 {
		t.Fatalf("degenerate threshold mutated probs: %v", probs)
	}
}

func TestProbabilitiesSumToOne(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	env := tinyEnv(19, 3)
	vmP, pmP := m.Probabilities(env)
	sumV, sumP := 0.0, 0.0
	for _, p := range vmP {
		sumV += p
	}
	for _, p := range pmP {
		sumP += p
	}
	if math.Abs(sumV-1) > 1e-9 || math.Abs(sumP-1) > 1e-9 {
		t.Fatalf("probability sums: vm %v pm %v", sumV, sumP)
	}
	// Illegal VMs carry ~zero probability.
	mask := env.VMMask()
	for i, ok := range mask {
		if !ok && vmP[i] > 1e-8 {
			t.Fatalf("illegal vm %d has probability %v", i, vmP[i])
		}
	}
}

func TestDecimaSubsetStillLegal(t *testing.T) {
	cfg := testConfig(VanillaAttention, TwoStage)
	cfg.PMSubset = 2
	m := New(cfg)
	env := tinyEnv(23, 5)
	rng := rand.New(rand.NewSource(3))
	for !env.Done() {
		dec, err := m.Act(env, rng, SampleOpts{})
		if err != nil {
			break
		}
		if !env.Cluster().CanHost(dec.State.VM, dec.State.PM) {
			t.Fatal("Decima subset sampled illegal action")
		}
		if _, _, err := env.Step(dec.State.VM, dec.State.PM); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNeuPlanRunsAndImproves(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	env := tinyEnv(29, 6)
	np := &NeuPlan{Model: m, Beta: 3, Seed: 1}
	np.Inner.Beam = 4
	np.Inner.MaxNodes = 4000
	np.Inner.AllowLoss = true
	before := env.FragRate()
	if err := np.Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if env.StepsTaken() > 6 {
		t.Fatalf("NeuPlan exceeded MNL: %d", env.StepsTaken())
	}
	if env.FragRate() > before+1e-9 {
		t.Errorf("NeuPlan worsened FR: %v -> %v", before, env.FragRate())
	}
}

func TestModelCheckpointRoundTripPreservesPolicy(t *testing.T) {
	cfg := testConfig(SparseAttention, TwoStage)
	m1 := New(cfg)
	var buf bytes.Buffer
	if err := m1.Params.SaveCKPT(&buf, "f64"); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999 // different init, then overwritten by checkpoint
	m2 := New(cfg)
	if err := m2.Params.Load(&buf); err != nil {
		t.Fatal(err)
	}
	env1 := tinyEnv(31, 4)
	env2 := tinyEnv(31, 4)
	if err := (&Agent{Model: m1, Opts: SampleOpts{Greedy: true}}).Solve(context.Background(), env1); err != nil {
		t.Fatal(err)
	}
	if err := (&Agent{Model: m2, Opts: SampleOpts{Greedy: true}}).Solve(context.Background(), env2); err != nil {
		t.Fatal(err)
	}
	if env1.FragRate() != env2.FragRate() {
		t.Fatal("checkpoint round trip changed policy behaviour")
	}
}

func TestAgentWithAffinityConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	c := trace.MustProfile("tiny").GenerateMapping(rng)
	trace.AttachAffinity(c, 4, rng)
	m := New(testConfig(SparseAttention, TwoStage))
	env := sim.New(c, sim.DefaultConfig(5))
	if err := (&Agent{Model: m, Seed: 5}).Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if err := env.Cluster().Validate(); err != nil {
		t.Fatalf("affinity violated after rollout: %v", err)
	}
}

func TestAgentEarlyStop(t *testing.T) {
	m := New(testConfig(SparseAttention, TwoStage))
	env := tinyEnv(41, 6)
	v0 := sim.FR16().Value(env.Cluster())
	ag := Agent{Model: m, Opts: SampleOpts{Greedy: true}, EarlyStop: true}
	if err := ag.Solve(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	// With early stop, an untrained greedy agent never executes a
	// negative-gain migration: final FR <= initial FR is not guaranteed
	// step-by-step, but each executed step had non-negative analytic gain,
	// so the total objective cannot increase.
	if env.Value() > v0+1e-9 {
		t.Errorf("early-stop agent worsened objective: %v -> %v",
			v0, env.Value())
	}
}

func TestMultiHeadPolicyForward(t *testing.T) {
	cfg := testConfig(SparseAttention, TwoStage)
	cfg.Heads = 2
	m := New(cfg)
	env := tinyEnv(43, 3)
	dec, err := m.Act(env, rand.New(rand.NewSource(1)), SampleOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Evaluate(nil, dec.State)
	if math.Abs(ev.LogProb.Scalar()-dec.LogProb) > 1e-9 {
		t.Fatal("multi-head Evaluate mismatch")
	}
}
