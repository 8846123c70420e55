package serve

import (
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// Incremental serving. Rollout sessions submit one WaveInfer row per step
// against the same environment, and consecutive steps differ by a single
// migration — exactly the access pattern the policy step cache
// (policy.InferCtx.SetIncremental) turns into row patches instead of full
// forwards. The scheduler keeps one incremental InferCtx per live
// environment and, when enabled, serves WaveInfer rows through it — a wave
// of one fed by the step cache — rather than the shared ServeWave, whose
// front end recomputes every row. Results are bit-identical either way (the
// wave kernels compute each row independently, and the step cache is
// bit-exact by construction), so routing is purely a throughput decision.
// Rows of different sessions are still resolved one at a time here:
// stacking their dirty rows into one GEMM is an open ROADMAP item.
//
// Sessions are keyed by *sim.Env and bounded by an LRU: an evicted session
// just loses its cache (the next row re-primes). An env that is Reset or
// recycled marks its journal full-dirty, so a stale cache degrades to a
// counted fallback, never a wrong answer. Hit/miss/fallback counters are
// aggregated into Stats — visible at /debug/vmr2l/serving — so cache
// effectiveness is observable and every full recompute is accounted for.

// IncrementalMode selects whether WaveInfer rows go through per-session
// step caches.
type IncrementalMode int

const (
	// IncrementalAuto (the default) enables session caches when the model's
	// extractor supports a fully incremental forward (NoAttention); dense
	// and tree extractors recompute their attention suffix anyway, so those
	// models stay on the batched path where rows share GEMM waves.
	IncrementalAuto IncrementalMode = iota
	// IncrementalOn forces session caches for every model.
	IncrementalOn
	// IncrementalOff disables them; all rows ride batched waves.
	IncrementalOff
)

// maxIncrSessions bounds the per-env cache map. Beyond it the
// least-recently-served session is dropped (its next row re-primes).
const maxIncrSessions = 64

// incrSession is one environment's serving cache: a persistent incremental
// InferCtx plus the counter snapshot already folded into the aggregate.
type incrSession struct {
	ic      *policy.InferCtx
	last    policy.IncrStats
	lastUse uint64
}

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

// serveIncr resolves one sealed WaveInfer row through its session cache.
// Runner goroutine only.
func (s *Scheduler) serveIncr(p *pending) {
	sess := s.session(p.req.Env)
	vm, pm, err := s.model.Infer(sess.ic, p.req.Env, p.req.Rng, p.req.Opts)
	p.res = policy.WaveRes{VM: vm, PM: pm, Err: err}
	st := sess.ic.IncrStats()
	s.accRows++
	s.accHits += st.Hits - sess.last.Hits
	s.accMisses += st.Misses - sess.last.Misses
	s.accFallbacks += st.Fallbacks - sess.last.Fallbacks
	sess.last = st
	close(p.done)
}

// session returns env's cache, creating (and LRU-evicting) as needed.
// Runner goroutine only.
func (s *Scheduler) session(env *sim.Env) *incrSession {
	if s.sessions == nil {
		s.sessions = make(map[*sim.Env]*incrSession)
	}
	sess := s.sessions[env]
	if sess == nil {
		if len(s.sessions) >= maxIncrSessions {
			s.evictIncrLRU()
		}
		sess = &incrSession{ic: policy.NewInferCtx()}
		sess.ic.SetIncremental(true)
		s.sessions[env] = sess
	}
	sess.lastUse = s.waveSeq
	return sess
}

// evictIncrLRU drops the least-recently-served session. Its counters were
// folded into the aggregate per row, so nothing is lost.
func (s *Scheduler) evictIncrLRU() {
	var victimEnv *sim.Env
	var victim *incrSession
	for e, sess := range s.sessions {
		if victim == nil || sess.lastUse < victim.lastUse {
			victimEnv, victim = e, sess
		}
	}
	delete(s.sessions, victimEnv)
}

// flushIncr publishes the runner-local counter deltas under the lock so
// Stats sees a consistent snapshot after every wave.
func (s *Scheduler) flushIncr() {
	s.mu.Lock()
	s.incrRows += s.accRows
	s.incrHits += s.accHits
	s.incrMisses += s.accMisses
	s.incrFallbacks += s.accFallbacks
	s.incrSessions = len(s.sessions)
	s.mu.Unlock()
	s.accRows, s.accHits, s.accMisses, s.accFallbacks = 0, 0, 0, 0
}
