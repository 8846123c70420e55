package policy

import (
	"math/rand"

	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// State is everything needed to re-evaluate a stored decision during PPO
// updates: the observation, the masks that applied, and the action taken.
type State struct {
	Feat *sim.Features
	// VMMask and PMMask are the stage-1/stage-2 masks in effect (nil when
	// the action mode does not mask).
	VMMask []bool
	PMMask []bool
	// JointMask is the M×N legality mask for FullMask mode.
	JointMask []bool
	// VM and PM are the chosen action.
	VM int
	PM int
}

// SampleOpts controls action selection at inference.
type SampleOpts struct {
	// Greedy takes the argmax instead of sampling.
	Greedy bool
	// VMQuantile / PMQuantile, when > 0, mask out candidates whose
	// probability falls below that quantile of the stage's distribution —
	// the paper's action thresholding (section 3.4).
	VMQuantile float64
	PMQuantile float64
}

// Decision is one sampled action plus the quantities PPO stores.
type Decision struct {
	State   *State
	LogProb float64
	Value   float64
}

func sampleRow(probs []float64, rng *rand.Rand, greedy bool) int {
	if greedy {
		best := 0
		for i, p := range probs {
			if p > probs[best] {
				best = i
			}
		}
		return best
	}
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(probs) - 1
}

// Act selects an action for the environment's current state and returns the
// decision record used by PPO (state snapshot, log-prob, value): a wave of
// one WaveAct row on a pooled context. The forward runs graph-free; Evaluate
// later rebuilds the graph from the stored state when PPO needs gradients.
func (m *Model) Act(env *sim.Env, rng *rand.Rand, opts SampleOpts) (*Decision, error) {
	ic := AcquireCtx()
	defer ic.Release()
	return m.ActCtx(ic, env, rng, opts)
}

// ActCtx is Act on a caller-owned inference context: collection loops hold
// one context across a whole episode instead of a pool round-trip per
// decision.
func (m *Model) ActCtx(ic *InferCtx, env *sim.Env, rng *rand.Rand, opts SampleOpts) (*Decision, error) {
	ic.waveRes = m.ServeWave(ic, ic.one(WaveReq{Kind: WaveAct, Env: env, Rng: rng, Opts: opts}), ic.waveRes)
	return ic.waveRes[0].Dec, ic.waveRes[0].Err
}

// sampleLegal samples from probs but never returns an illegal index: if the
// sampled index is illegal (possible only in degenerate distributions), it
// falls back to the legal argmax.
func sampleLegal(probs []float64, mask []bool, rng *rand.Rand, greedy bool) int {
	idx := sampleRow(probs, rng, greedy)
	if mask == nil || mask[idx] {
		return idx
	}
	best := -1
	for i, ok := range mask {
		if ok && (best < 0 || probs[i] > probs[best]) {
			best = i
		}
	}
	if best < 0 {
		return idx
	}
	return best
}

// subsetPM picks the highest-probability PM within a random legal subset of
// size k (Decima's random destination subsampling).
func subsetPM(mask []bool, k int, probs []float64, rng *rand.Rand) int {
	var legal []int
	for pm, ok := range mask {
		if ok {
			legal = append(legal, pm)
		}
	}
	if len(legal) == 0 {
		return sampleRow(probs, rng, false)
	}
	rng.Shuffle(len(legal), func(i, j int) { legal[i], legal[j] = legal[j], legal[i] })
	if len(legal) > k {
		legal = legal[:k]
	}
	best := legal[0]
	for _, pm := range legal {
		if probs[pm] > probs[best] {
			best = pm
		}
	}
	return best
}

func anyTrue(mask []bool) bool {
	for _, b := range mask {
		if b {
			return true
		}
	}
	return false
}

// jointLogits builds the FullMask joint score matrix flattened to 1×(M·N):
// pairwise compatibility between VM and PM embeddings.
func (m *Model) jointLogits(out *forwardOut, mask []bool) *tensor.Tensor {
	scores := tensor.MatMulT(out.vmE, out.pmE) // M×N
	flat := tensor.Reshape(scores, 1, scores.Rows*scores.Cols)
	if mask != nil {
		flat = tensor.MaskedFill(flat, mask, -1e9)
	}
	return flat
}

// Evaluation holds the differentiable quantities PPO needs for one stored
// step.
type Evaluation struct {
	LogProb *tensor.Tensor // 1×1
	Value   *tensor.Tensor // 1×1
	Entropy *tensor.Tensor // 1×1
}

// Evaluate recomputes log π(a|s), V(s) and the policy entropy for a stored
// state, building the autodiff graph for the PPO update. The graph's storage
// belongs to pool — a trainer recycles it per minibatch — or to the heap when
// pool is nil.
func (m *Model) Evaluate(pool *tensor.GraphPool, st *State) *Evaluation {
	out := m.forward(pool, st.Feat)
	ev := &Evaluation{Value: m.value(out)}
	switch m.Cfg.Action {
	case FullMask:
		n := len(st.Feat.PM)
		logp := tensor.LogSoftmax(m.jointLogits(out, st.JointMask))
		ev.LogProb = tensor.PickPerRow(logp, []int{st.VM*n + st.PM})
		ev.Entropy = entropyOf(logp)
	case Penalty:
		vmLogp := tensor.LogSoftmax(m.vmLogits(out, nil))
		pmLogp := tensor.LogSoftmax(m.pmLogits(out, st.VM, nil))
		ev.LogProb = tensor.Add(
			tensor.PickPerRow(vmLogp, []int{st.VM}),
			tensor.PickPerRow(pmLogp, []int{st.PM}))
		ev.Entropy = tensor.Add(entropyOf(vmLogp), entropyOf(pmLogp))
	default:
		vmLogp := tensor.LogSoftmax(m.vmLogits(out, st.VMMask))
		pmLogp := tensor.LogSoftmax(m.pmLogits(out, st.VM, st.PMMask))
		ev.LogProb = tensor.Add(
			tensor.PickPerRow(vmLogp, []int{st.VM}),
			tensor.PickPerRow(pmLogp, []int{st.PM}))
		ev.Entropy = tensor.Add(entropyOf(vmLogp), entropyOf(pmLogp))
	}
	return ev
}

// entropyOf computes -Σ p·log p from a 1×n log-probability row.
func entropyOf(logp *tensor.Tensor) *tensor.Tensor {
	return tensor.Scale(tensor.Sum(tensor.Mul(tensor.Exp(logp), logp)), -1)
}

// Probabilities returns the stage-1 VM distribution and, for its argmax VM,
// the stage-2 PM distribution — the data behind paper Fig. 11. A wave of one
// through the wave forward and heads, stopping short of the sampler; the
// returned slices are fresh copies.
func (m *Model) Probabilities(env *sim.Env) (vmProbs, pmProbs []float64) {
	ic := AcquireCtx()
	defer ic.Release()
	ar := &ic.arena
	ar.Reset()
	ic.extractWave(ic.one(WaveReq{Env: env}))
	out := m.forwardWave(ic)
	vmRow := logitsRow(ar, m.vmLogitsCol(ic, out), 0, ic.vmOff[1], env.VMMask())
	vmProbs = append([]float64(nil), ar.Softmax(vmRow).Data...)
	best := 0
	for i, p := range vmProbs {
		if p > vmProbs[best] {
			best = i
		}
	}
	pmRow := logitsRow(ar, m.pmLogitsCol(ic, out, []int{best}), 0, ic.pmOff[1], env.PMMask(best))
	pmProbs = append([]float64(nil), ar.Softmax(pmRow).Data...)
	return vmProbs, pmProbs
}
