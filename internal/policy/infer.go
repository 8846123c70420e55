package policy

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"

	"vmr2l/internal/cluster"
	"vmr2l/internal/sim"
	"vmr2l/internal/tensor"
)

// ErrNoMigratableVM is returned by Infer when stage 1 has no legal candidate.
var ErrNoMigratableVM = errors.New("policy: no migratable VM")

// InferCtx is the scratch state of the graph-free inference path: one tensor
// arena for the wave forward, the two front ends that feed it (a stacked
// feature batch for full recomputes, the step cache of incr.go for
// incremental ones), and reusable mask and wave buffers. Obtain one with
// NewInferCtx (or AcquireCtx for a pooled, warm one) and reuse it across
// waves and episodes; it is not safe for concurrent use. At a stable wave
// shape a full wave performs zero heap allocations at GOMAXPROCS=1; above
// it, each kernel that fans out over goroutines allocates a fixed handful
// per fan-out (TestInferBatchSteadyStateAllocs pins both).
type InferCtx struct {
	arena tensor.Arena

	// fb holds a wave's freshly extracted features, all segments stacked.
	fb sim.FeatureBatch
	// incr enables the step cache (incr.go): one environment's embeddings
	// carry over from the previous Infer and only dirty rows recompute. Off
	// by default; results are bit-identical either way.
	incr  bool
	cache stepCache

	// Row layout of the current wave, set by whichever front end ran:
	// segment b owns PM rows pmOff[b]:pmOff[b+1] and VM rows
	// vmOff[b]:vmOff[b+1] of the stacked embeddings, and feats[b] is its
	// feature set (tree structure, WaveAct snapshot source).
	pmOff, vmOff []int
	feats        []*sim.Features

	gb  groupBuf
	out waveOut

	// Sampling scratch, reused across rows and waves.
	vmMask    []bool
	pmMask    []bool
	jointMask []bool
	sortBuf   []float64
	vmSel     []int
	values    []float64

	// Request/result scratch of the typed single-kind entry points.
	clusters []*cluster.Cluster
	reqs     []WaveReq
	waveRes  []WaveRes
}

// NewInferCtx returns an empty inference context.
func NewInferCtx() *InferCtx { return &InferCtx{} }

// NewBatchInferCtx returns an empty inference context: a wave of one and a
// wave of many share one context type.
func NewBatchInferCtx() *InferCtx { return NewInferCtx() }

// ctxPool recycles contexts for callers that do not manage their own.
var ctxPool = sync.Pool{New: func() any { return NewInferCtx() }}

// AcquireCtx returns a pooled inference context with warm buffers; call
// Release when done. External consumers (risk-seeking evaluation, MCTS value
// priors, the serving scheduler) use this instead of growing a fresh
// context's arena per request.
func AcquireCtx() *InferCtx { return ctxPool.Get().(*InferCtx) }

// Release returns the context to the pool. The context must not be used
// afterwards.
func (ic *InferCtx) Release() { ctxPool.Put(ic) }

// one returns the context's request scratch holding the single row req.
func (ic *InferCtx) one(req WaveReq) []WaveReq {
	ic.reqs = append(ic.reqs[:0], req)
	return ic.reqs
}

// resizeFloats returns dst with length n, reallocating only when needed.
func resizeFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// resizeInts returns dst with length n, reallocating only when needed.
func resizeInts(dst []int, n int) []int {
	if cap(dst) < n {
		return make([]int, n)
	}
	return dst[:n]
}

// applyThresholdBuf is the single implementation of action thresholding
// (paper section 3.4): entries below the q-th quantile of the distribution
// are zeroed and the rest renormalized, respecting an optional legality
// mask. buf is an optional reusable sort buffer; the (possibly grown)
// buffer is returned so contexts can keep it. The q<=0 and all-zero-sum
// degenerate cases leave probs untouched (callers fall back to legal max).
func applyThresholdBuf(buf, probs []float64, mask []bool, q float64) []float64 {
	if q <= 0 || len(probs) == 0 {
		return buf
	}
	buf = append(buf[:0], probs...)
	sort.Float64s(buf)
	th := buf[int(q*float64(len(buf)-1))]
	sum := 0.0
	for i, p := range probs {
		if p >= th && (mask == nil || mask[i]) {
			sum += p
		}
	}
	if sum == 0 {
		return buf // degenerate: leave as-is (caller falls back to legal max)
	}
	for i, p := range probs {
		if p >= th && (mask == nil || mask[i]) {
			probs[i] = p / sum
		} else {
			probs[i] = 0
		}
	}
	return buf
}

// Infer selects an action on the environment's current state: a wave of one
// WaveInfer row on the caller's context, allocation-free once warm at
// GOMAXPROCS=1 (see InferCtx for the fan-out's allocations). With the
// step cache on, the cache supplies the row's embeddings in place of a full
// extract-and-embed; block loop, heads and sampler are the wave's either
// way. Use this for rollouts and serving; use Act when the decision record
// (state snapshot, log-prob, value) must be retained for training.
func (m *Model) Infer(ic *InferCtx, env *sim.Env, rng *rand.Rand, opts SampleOpts) (vm, pm int, err error) {
	reqs := ic.one(WaveReq{Kind: WaveInfer, Env: env, Rng: rng, Opts: opts})
	if ic.incr {
		ic.arena.Reset()
		ic.waveRes = m.decide(ic, m.forwardIncr(ic, env), reqs, ic.waveRes)
	} else {
		ic.waveRes = m.ServeWave(ic, reqs, ic.waveRes)
	}
	r := &ic.waveRes[0]
	return r.VM, r.PM, r.Err
}

// logProbOf returns log(p) with the same epsilon floor the training path
// uses.
func logProbOf(p float64) float64 { return math.Log(p + 1e-300) }
