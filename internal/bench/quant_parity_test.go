package bench

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/scenario"
	"vmr2l/internal/shard"
	"vmr2l/internal/sim"
)

// int8 FR parity: on every registry scenario the quantized policy must land
// within quantParityEpsilon final fragment rate of its float twin. Each
// scenario averages quantParityReplicas independent greedy episodes.
// Fleet-scale scenarios (10k PMs) are evaluated on extracted shards whose
// label says so, never silently down-sampled: a greedy per-VM episode over
// the full fleet is not what the int8 path serves (scale-out solving shards
// first; see internal/shard).

// quantParityResult is one scenario's float-vs-int8 outcome, averaged over
// Replicas independent greedy episodes (distinct cluster builds, or distinct
// shards for fleet-scale scenarios). Averaging is what makes the bar
// meaningful: a single episode can diverge on one near-tie argmax flip and
// land on a different, equally legal trajectory whose final FR differs far
// more than any per-step numeric error, while the replica mean isolates
// systematic quantization bias from trajectory luck. MaxDiff records the
// worst single replica.
type quantParityResult struct {
	Scenario               string // registry name, "[shards..]"-suffixed when extracted
	Replicas               int
	PMs, VMs               int // per replica (mean, rounded)
	FloatFR, QuantFR       float64
	Diff                   float64 // |mean float - mean quant|
	MaxDiff                float64 // worst single replica
	FloatSteps, QuantSteps int
}

// quantParityEpsilon is the FR-parity bar. 7-bit weights plus per-row
// activation quantization keep logits close, but a near-tie argmax can flip
// and send the greedy episode down a different (equally legal) trajectory,
// so the bar allows small divergence rather than demanding identical plans.
const quantParityEpsilon = 0.02

// quantParityMaxPMs bounds the cluster a parity episode runs on; larger
// scenarios are partitioned and their first shards evaluated, with the label
// saying so.
const quantParityMaxPMs = 128

// quantParityReplicas is how many independent episodes each scenario's
// parity comparison averages over.
const quantParityReplicas = 3

// quantParityClusters builds the scenario's parity replicas. Small
// scenarios rebuild with consecutive seeds; fleet-scale scenarios build
// once and take the first replicas of a balanced shard partition. The label
// names the extraction.
func quantParityClusters(sc scenario.Scenario) ([]*cluster.Cluster, string, error) {
	probe, err := sc.Build(rand.New(rand.NewSource(sc.Seed)))
	if err != nil {
		return nil, "", err
	}
	if len(probe.PMs) <= quantParityMaxPMs {
		cs := []*cluster.Cluster{probe}
		for i := 1; i < quantParityReplicas; i++ {
			c, err := sc.Build(rand.New(rand.NewSource(sc.Seed + int64(i))))
			if err != nil {
				return nil, "", err
			}
			cs = append(cs, c)
		}
		return cs, sc.Name, nil
	}
	k := (len(probe.PMs) + quantParityMaxPMs - 1) / quantParityMaxPMs
	parts, _ := shard.Partition(probe, k)
	n := min(quantParityReplicas, len(parts))
	var cs []*cluster.Cluster
	for i := 0; i < n; i++ {
		sub, _ := probe.ExtractSub(parts[i])
		cs = append(cs, sub)
	}
	return cs, fmt.Sprintf("%s[shards0-%d/%d]", sc.Name, n-1, len(parts)), nil
}

// measureQuantParity runs the replica episodes on identical weights per
// numeric path and compares mean final fragment rates.
func measureQuantParity(sc scenario.Scenario) (quantParityResult, error) {
	clusters, label, err := quantParityClusters(sc)
	if err != nil {
		return quantParityResult{}, err
	}
	obj, err := sim.ParseObjective(sc.Objective)
	if err != nil {
		return quantParityResult{}, err
	}
	cfg := policy.DefaultConfig()
	mFloat := policy.New(cfg)
	mQuant := policy.New(cfg) // same seed: identical weights
	if mQuant.Quantize() == 0 {
		return quantParityResult{}, fmt.Errorf("model quantized no layers")
	}
	res := quantParityResult{Scenario: label, Replicas: len(clusters)}
	for _, c := range clusters {
		fFR, fSteps := greedyFinalFR(mFloat, c, obj, sc.MNL)
		qFR, qSteps := greedyFinalFR(mQuant, c, obj, sc.MNL)
		res.PMs += len(c.PMs)
		res.VMs += len(c.VMs)
		res.FloatFR += fFR
		res.QuantFR += qFR
		res.FloatSteps += fSteps
		res.QuantSteps += qSteps
		res.MaxDiff = max(res.MaxDiff, math.Abs(fFR-qFR))
	}
	n := float64(len(clusters))
	res.PMs = int(math.Round(float64(res.PMs) / n))
	res.VMs = int(math.Round(float64(res.VMs) / n))
	res.FloatFR /= n
	res.QuantFR /= n
	res.Diff = math.Abs(res.FloatFR - res.QuantFR)
	return res, nil
}

// greedyFinalFR plays one greedy episode of m on c and returns the final
// 16-core fragment rate and the migrations taken. An inference error (no
// legal action left) ends the episode early — both paths get the same rule.
func greedyFinalFR(m *policy.Model, c *cluster.Cluster, obj sim.Objective, mnl int) (float64, int) {
	env := sim.New(c, sim.Config{MNL: mnl, Obj: obj})
	ic := policy.NewInferCtx()
	rng := rand.New(rand.NewSource(1))
	steps := 0
	for !env.Done() {
		vm, pm, err := m.Infer(ic, env, rng, policy.SampleOpts{Greedy: true})
		if err != nil {
			break
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			break
		}
		steps++
	}
	return env.FragRate(), steps
}

// parityScenarios returns the registry scenarios with distinct parity
// inputs. A parity episode reads a scenario's build fields, objective and
// MNL, never its dynamics, and is deterministic (the *Deterministic tests
// pin that). A scenario that differs from an earlier one only in name,
// description or dynamics would repeat that scenario's measurement bit for
// bit; it is logged and measured once. hyperscale-diurnal, for one, is
// large-static with churn.
func parityScenarios(t *testing.T) []scenario.Scenario {
	var out []scenario.Scenario
	first := map[string]string{}
	for _, sc := range scenario.All() {
		in := sc
		in.Name, in.Description, in.Dynamics = "", "", scenario.DynamicsSpec{}
		key := fmt.Sprintf("%+v", in)
		if twin, ok := first[key]; ok {
			t.Logf("%s has %s's parity inputs (it differs only in dynamics): measured once", sc.Name, twin)
			continue
		}
		first[key] = sc.Name
		out = append(out, sc)
	}
	return out
}

// TestQuantParityEveryScenario is the int8 gate: on every registry scenario
// the mean final-FR gap between the float and the quantized policy stays
// within quantParityEpsilon.
func TestQuantParityEveryScenario(t *testing.T) {
	for _, sc := range parityScenarios(t) {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			pr, err := measureQuantParity(sc)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Diff > quantParityEpsilon {
				t.Errorf("%s: |FR_float - FR_int8| = %.4f > epsilon %.4f (%.4f vs %.4f over %d replicas)",
					pr.Scenario, pr.Diff, quantParityEpsilon, pr.FloatFR, pr.QuantFR, pr.Replicas)
			}
		})
	}
}

// TestQuantParityDeterministic pins that the parity measurement is exactly
// reproducible: integer-exact kernels plus fixed seeds leave nothing
// timing-dependent in the FR numbers, which is what lets the epsilon bar
// run without a noise margin.
func TestQuantParityDeterministic(t *testing.T) {
	sc := scenario.MustGet("static")
	a, err := measureQuantParity(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureQuantParity(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("parity measurement not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Replicas != quantParityReplicas {
		t.Fatalf("replicas = %d, want %d", a.Replicas, quantParityReplicas)
	}
	if a.FloatSteps == 0 || a.QuantSteps == 0 {
		t.Fatal("parity episodes took no steps")
	}
}

// TestQuantParityShardsHyperscale pins the no-silent-caps contract: a
// fleet-scale scenario must come back labeled as shard-extracted, never
// silently down-sampled under the registry name.
func TestQuantParityShardsHyperscale(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperscale build is slow")
	}
	sc := scenario.MustGet("large-static")
	cs, label, err := quantParityClusters(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(label, "[shards") {
		t.Fatalf("fleet-scale parity label %q does not declare shard extraction", label)
	}
	if len(cs) != quantParityReplicas {
		t.Fatalf("%d parity replicas, want %d", len(cs), quantParityReplicas)
	}
	for _, c := range cs {
		if len(c.PMs) > quantParityMaxPMs {
			t.Fatalf("parity replica has %d PMs, above the %d bound", len(c.PMs), quantParityMaxPMs)
		}
	}
}
