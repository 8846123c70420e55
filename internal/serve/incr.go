package serve

import (
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// Incremental serving. A rollout submits one WaveInfer row per step against
// the same environment, and consecutive steps differ by a single migration
// — exactly the access pattern the policy step cache
// (policy.InferCtx.SetIncremental) turns into row patches instead of full
// forwards. When enabled, Agent takes one pooled incremental InferCtx per
// environment for the length of its rollout and attaches it to every row it
// submits; the runner serves such a row as a wave of one fed by the step
// cache, rather than through the shared ServeWave, whose front end
// recomputes every row. A WaveInfer row submitted bare (Submit, Infer) goes
// through the runner's one cache of its own, which a stream of rows on one
// env keeps warm and which pins at most that env. Results are bit-identical
// either way (the wave kernels compute each row independently, and the step
// cache is bit-exact by construction), so routing is purely a throughput
// decision. Rows of different rollouts are still resolved one at a time:
// stacking their dirty rows into one GEMM is an open ROADMAP item.
//
// Ownership rule: whoever submits a row owns its cache and releases it. The
// runner touches a cache only while the row is sealed into a wave, and
// SubmitMany returns only once every admitted row has resolved, so when a
// rollout ends — normally, on cancellation, or on Close — it hands its
// caches back to the pool and the scheduler keeps no reference to its envs.
// Hit/miss/fallback counters are aggregated into Stats — exported as
// vmr2l_serve_incr_* on GET /metrics — so every full recompute is counted.

// IncrementalMode selects whether WaveInfer rows are served through step
// caches.
type IncrementalMode int

const (
	// IncrementalAuto (the default) enables step caches when the model's
	// extractor supports a fully incremental forward (NoAttention); dense
	// and tree extractors recompute their attention suffix anyway, so those
	// models stay on the batched path where rows share GEMM waves.
	IncrementalAuto IncrementalMode = iota
	// IncrementalOn forces step caches for every model.
	IncrementalOn
	// IncrementalOff disables them; all rows ride batched waves.
	IncrementalOff
)

// incrEnabled resolves the mode against the model at scheduler start.
func incrEnabled(mode IncrementalMode, m *policy.Model) bool {
	switch mode {
	case IncrementalOn:
		return true
	case IncrementalOff:
		return false
	default:
		return m.Cfg.Extractor == policy.NoAttention
	}
}

// acquireCaches takes one pooled incremental context per environment for a
// rollout and counts them in Stats.IncrSessions until releaseCaches.
func (s *Scheduler) acquireCaches(envs []*sim.Env) map[*sim.Env]*policy.InferCtx {
	caches := make(map[*sim.Env]*policy.InferCtx, len(envs))
	for _, env := range envs {
		if caches[env] == nil {
			caches[env] = policy.AcquireCtx()
			caches[env].SetIncremental(true)
		}
	}
	s.mu.Lock()
	s.incrSessions += len(caches)
	s.mu.Unlock()
	return caches
}

// releaseCaches returns a rollout's contexts to the pool. The rollout must
// have no rows in flight.
func (s *Scheduler) releaseCaches(caches map[*sim.Env]*policy.InferCtx) {
	for _, ic := range caches {
		ic.SetIncremental(false)
		ic.Release()
	}
	s.mu.Lock()
	s.incrSessions -= len(caches)
	s.mu.Unlock()
}

// serveIncr resolves one sealed WaveInfer row through the step cache ic
// and publishes the cache's counter deltas. Runner goroutine only.
func (s *Scheduler) serveIncr(p *pending, ic *policy.InferCtx) {
	before := ic.IncrStats()
	vm, pm, err := s.model.Infer(ic, p.req.Env, p.req.Rng, p.req.Opts)
	p.res = policy.WaveRes{VM: vm, PM: pm, Err: err}
	after := ic.IncrStats()
	s.mu.Lock()
	s.incrRows++
	s.incrHits += after.Hits - before.Hits
	s.incrMisses += after.Misses - before.Misses
	s.incrFallbacks += after.Fallbacks - before.Fallbacks
	s.mu.Unlock()
	close(p.done)
}
