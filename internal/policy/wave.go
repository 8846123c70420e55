package policy

import (
	"math/rand"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
)

// Wave lifecycle. A *wave* is one stacked forward pass serving one or many
// independent inference requests: every request contributes its environment's
// PM/VM feature rows to the batch, the forward runs once, and each request's
// result is read back from its own row segment. Because every kernel computes
// each output row independently of how many other rows share the call, a
// request's result has the same bits in a wave of one and in any larger wave
// — regardless of which other requests happen to share it. That independence
// is what makes continuous batching (internal/serve) correct: a server-side
// scheduler can coalesce rows from unrelated jobs into one wave and hand
// every caller exactly the answer it would have computed alone.
//
// ServeWave is the single inference implementation; Infer, Act, InferBatch,
// ActBatch and ValuesBatch are thin typed wrappers that build homogeneous
// waves (of one, or of many). The serving scheduler builds heterogeneous
// ones: session rollouts (WaveInfer), training-style decisions (WaveAct),
// and MCTS critic priors (WaveValue) all ride the same GEMMs.

// WaveKind selects what a wave row computes.
type WaveKind uint8

const (
	// WaveInfer selects one action on the request's environment — the
	// serving path, allocation-free at GOMAXPROCS=1 (see InferCtx).
	WaveInfer WaveKind = iota
	// WaveAct selects the same action and retains the PPO decision record
	// — state snapshot, masks, log-prob, critic value.
	WaveAct
	// WaveValue scores the request's cluster state with the critic head
	// (MCTS value-prior semantics). Env is ignored; State is used.
	WaveValue
)

// WaveReq is one request row of a wave.
type WaveReq struct {
	Kind WaveKind
	// Env is the environment acted on (WaveInfer, WaveAct).
	Env *sim.Env
	// State is the cluster scored by WaveValue rows (Env takes precedence
	// when both are set).
	State *cluster.Cluster
	// Rng drives sampling for WaveInfer/WaveAct rows. Each request owns its
	// rng, so results do not depend on wave composition.
	Rng *rand.Rand
	// Opts are the sampling options for WaveInfer/WaveAct rows.
	Opts SampleOpts
}

// WaveRes is one request row's result.
type WaveRes struct {
	// VM, PM is the selected action (WaveInfer, WaveAct).
	VM, PM int
	// Err is ErrNoMigratableVM when stage 1 had no legal candidate for this
	// row's environment.
	Err error
	// Dec is the retained decision record of a WaveAct row (nil when Err is
	// set).
	Dec *Decision
	// Value is the critic value (WaveValue rows; also filled for WaveAct).
	Value float64
}

// hasKind reports whether any request row is of kind k.
func hasKind(reqs []WaveReq, k WaveKind) bool {
	for i := range reqs {
		if reqs[i].Kind == k {
			return true
		}
	}
	return false
}

// ServeWave runs one mixed-kind wave: every request's feature rows stack into
// a single forward pass, then each row's result is computed from its own
// segment. A request's result does not depend on what else shares the wave —
// the row-independence property tests pin that — so rows from unrelated
// callers can share a wave safely. res is an optional reusable result slice.
// Rows of kind WaveInfer keep the wave allocation-free at a stable shape and
// GOMAXPROCS=1; WaveAct rows allocate their retained decision records.
func (m *Model) ServeWave(ic *InferCtx, reqs []WaveReq, res []WaveRes) []WaveRes {
	if len(reqs) == 0 {
		return res[:0]
	}
	ic.arena.Reset()
	ic.extractWave(reqs)
	return m.decide(ic, m.forwardWave(ic), reqs, res)
}

// decide turns a wave's extractor output into per-row results: the critic
// head where a row needs it, then the actor heads and the sampler. Both front
// ends end here.
func (m *Model) decide(ic *InferCtx, out *waveOut, reqs []WaveReq, res []WaveRes) []WaveRes {
	if cap(res) < len(reqs) {
		res = make([]WaveRes, len(reqs))
	} else {
		res = res[:len(reqs)]
	}
	for i := range res {
		res[i] = WaveRes{}
	}
	// The critic runs once over every row when any request needs it; rows
	// that don't read their value simply ignore it. Pure-infer waves skip
	// the critic entirely.
	if hasKind(reqs, WaveAct) || hasKind(reqs, WaveValue) {
		ic.values = m.valuesCol(ic, out, ic.values)
		for b := range reqs {
			if reqs[b].Kind == WaveInfer {
				continue
			}
			res[b].Value = ic.values[b]
			if reqs[b].Kind == WaveAct {
				res[b].Dec = &Decision{
					State: &State{Feat: ic.feats[b].Clone()},
					Value: ic.values[b],
				}
			}
		}
	}
	m.sample(ic, out, reqs, res)
	return res
}

// fillJointMask fills dst (len M·N, all false) with the FullMask legality
// matrix of env.
func (ic *InferCtx) fillJointMask(env *sim.Env, dst []bool, nPM int) {
	ic.vmMask = env.VMMaskInto(ic.vmMask)
	for v, ok := range ic.vmMask {
		if ok {
			ic.pmMask = env.PMMaskInto(v, ic.pmMask)
			copy(dst[v*nPM:(v+1)*nPM], ic.pmMask)
		}
	}
}

// sample is the one sampler: per row, masks → softmax → threshold → draw,
// consuming the row's own rng in a fixed order. A WaveAct row takes exactly
// the draws a WaveInfer row would and additionally records what PPO stores;
// WaveValue rows are skipped.
func (m *Model) sample(ic *InferCtx, out *waveOut, reqs []WaveReq, res []WaveRes) {
	ar := &ic.arena
	pmOff, vmOff := ic.pmOff, ic.vmOff
	switch m.Cfg.Action {
	case FullMask:
		for b := range reqs {
			r := &reqs[b]
			if r.Kind == WaveValue {
				continue
			}
			nVM, nPM := vmOff[b+1]-vmOff[b], pmOff[b+1]-pmOff[b]
			var mask []bool
			if r.Kind == WaveAct {
				mask = make([]bool, nVM*nPM) // retained in the decision
				res[b].Dec.State.JointMask = mask
			} else {
				if cap(ic.jointMask) < nVM*nPM {
					ic.jointMask = make([]bool, nVM*nPM)
				}
				mask = ic.jointMask[:nVM*nPM]
				for i := range mask {
					mask[i] = false
				}
			}
			ic.fillJointMask(r.Env, mask, nPM)
			probs := ar.Softmax(m.jointLogitsRow(ic, out, b, mask)).Data
			idx := sampleRow(probs, r.Rng, r.Opts.Greedy)
			res[b].VM, res[b].PM = idx/nPM, idx%nPM
			if dec := res[b].Dec; dec != nil {
				dec.State.VM, dec.State.PM = res[b].VM, res[b].PM
				dec.LogProb = logProbOf(probs[idx])
			}
		}

	default:
		// TwoStage; Penalty is the same two stages with no mask, threshold
		// or subset (illegal choices are penalized by the caller).
		masked := m.Cfg.Action == TwoStage
		ic.vmSel = resizeInts(ic.vmSel, len(reqs))
		vmCol := m.vmLogitsCol(ic, out)
		for b := range reqs {
			r := &reqs[b]
			ic.vmSel[b] = -1
			if r.Kind == WaveValue {
				continue
			}
			dec := res[b].Dec
			var mask []bool
			if masked {
				if dec != nil {
					mask = r.Env.VMMask() // retained in the decision
					dec.State.VMMask = mask
				} else {
					ic.vmMask = r.Env.VMMaskInto(ic.vmMask)
					mask = ic.vmMask
				}
				if !anyTrue(mask) {
					// No migratable VM: the episode is over for this env.
					res[b].Dec, res[b].Err = nil, ErrNoMigratableVM
					continue
				}
			}
			probs := ar.Softmax(logitsRow(ar, vmCol, vmOff[b], vmOff[b+1], mask)).Data
			if masked && r.Opts.VMQuantile > 0 {
				ic.sortBuf = applyThresholdBuf(ic.sortBuf, probs, mask, r.Opts.VMQuantile)
			}
			vm := sampleLegal(probs, mask, r.Rng, r.Opts.Greedy)
			ic.vmSel[b], res[b].VM = vm, vm
			if dec != nil {
				dec.State.VM = vm
				dec.LogProb = logProbOf(probs[vm])
			}
		}
		pmCol := m.pmLogitsCol(ic, out, ic.vmSel)
		for b := range reqs {
			r := &reqs[b]
			vm := ic.vmSel[b]
			if vm < 0 {
				continue
			}
			dec := res[b].Dec
			var mask []bool
			if masked {
				if dec != nil {
					mask = r.Env.PMMask(vm) // retained in the decision
					dec.State.PMMask = mask
				} else {
					ic.pmMask = r.Env.PMMaskInto(vm, ic.pmMask)
					mask = ic.pmMask
				}
			}
			probs := ar.Softmax(logitsRow(ar, pmCol, pmOff[b], pmOff[b+1], mask)).Data
			if masked && r.Opts.PMQuantile > 0 {
				ic.sortBuf = applyThresholdBuf(ic.sortBuf, probs, mask, r.Opts.PMQuantile)
			}
			pm := sampleLegal(probs, mask, r.Rng, r.Opts.Greedy)
			if dec != nil {
				dec.LogProb += logProbOf(probs[pm])
			}
			if masked && m.Cfg.PMSubset > 0 {
				// Decima-style: resample the PM from a random legal subset,
				// overriding the learned stage-2 choice.
				pm = subsetPM(mask, m.Cfg.PMSubset, probs, r.Rng)
			}
			res[b].PM = pm
			if dec != nil {
				dec.State.PM = pm
			}
		}
	}
}
