// Package serve is the continuous-batching inference scheduler: a
// server-side layer that coalesces inference requests from many concurrent
// consumers — session jobs, portfolio members, MCTS value priors, eval
// rollouts — into shared forward waves. Each consumer submits one row
// (an environment to act on, or a cluster state to score) and blocks until
// its result is ready; the scheduler stacks all pending rows into a single
// policy.ServeWave call, so one GEMM chain serves every waiting caller.
//
// The pattern is borrowed from LLM serving runtimes ("continuous batching"):
// instead of each request paying a full forward pass, concurrent requests
// share one, and rows that arrive while a wave is executing simply join the
// next wave. Because every wave kernel computes each output row
// independently, the result each caller receives is bit-identical to what a
// wave of one (policy.Model.Infer/Act) would have produced with the same rng
// stream — batching changes throughput, never answers. The scheduler adds no
// inference code of its own: full recomputes are policy.Model.ServeWave on
// the runner's context, step-cache rows (incr.go) are policy.Model.Infer on
// the cache the row carries (whoever submits a row owns its cache and
// releases it), and rollouts (Agent) are policy.Model.Rollout with
// SubmitMany computing the waves.
//
// Two knobs shape admission:
//
//   - MaxRows caps the wave size (default 128, the parallel-kernel
//     threshold of the batched forward).
//   - MaxWait optionally holds a wave open to let more rows arrive. The
//     default is 0: a wave fires as soon as the runner is free, and
//     batching emerges naturally from rows queuing while the previous wave
//     executes — low-concurrency callers pay no added latency.
//
// Cancellation never poisons a wave: a row whose context is cancelled while
// still queued is dropped without joining a wave; once a row is sealed into
// an executing wave its submitter waits the (bounded) wave out and receives
// the computed result, because the wave reads the caller-owned environment.
package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrShed is returned by Submit when the scheduler is in degraded mode
// (queue beyond ShedDepth) and this row lost the priority comparison — the
// serving layer's honest load-shedding signal. Every shed is counted in
// Stats.DroppedShed; a shed row never joins a wave.
var ErrShed = errors.New("serve: row shed under overload")

// Options configure wave admission.
type Options struct {
	// MaxRows caps rows per wave; 0 means 128.
	MaxRows int
	// MaxWait holds an under-full wave open for stragglers. 0 (the default)
	// fires immediately; coalescing still happens whenever rows arrive
	// faster than waves execute.
	MaxWait time.Duration
	// ShedDepth, when positive, bounds the waiting queue: a Submit that
	// would push the depth past it sheds the lowest-priority row instead —
	// the incoming one when it is lowest (newest loses ties), else the
	// newest queued row of the lowest priority, which resolves with ErrShed.
	// 0 means never shed.
	ShedDepth int
	// Incremental serves WaveInfer rows through step caches: each Agent
	// rollout's own, and the runner's for rows submitted without one (see
	// incr.go). The zero value is IncrementalAuto.
	Incremental IncrementalMode
}

// prioKey carries a row's shedding priority in its context.
type prioKey struct{}

// Priority returns ctx's shedding priority (0 when untagged or nil).
func Priority(ctx context.Context) int {
	if ctx == nil {
		return 0
	}
	if p, ok := ctx.Value(prioKey{}).(int); ok {
		return p
	}
	return 0
}

// Stats is a snapshot of scheduler counters, JSON-shaped for the debug mux.
type Stats struct {
	// Submitted counts rows ever submitted (including later-cancelled ones).
	Submitted uint64 `json:"submitted"`
	// Waves counts executed (non-empty) waves.
	Waves uint64 `json:"waves"`
	// Rows counts rows served across all waves.
	Rows uint64 `json:"rows"`
	// DroppedCancel counts rows dropped because their context was cancelled
	// before they were sealed into a wave.
	DroppedCancel uint64 `json:"dropped_cancel"`
	// DroppedShed counts rows resolved with ErrShed in degraded mode
	// (queue past ShedDepth, lowest priority loses).
	DroppedShed uint64 `json:"dropped_shed"`
	// QueueDepth is the number of rows waiting at snapshot time.
	QueueDepth int `json:"queue_depth"`
	// MaxWave and MeanWave describe achieved wave sizes.
	MaxWave  int     `json:"max_wave"`
	MeanWave float64 `json:"mean_wave"`
	// IncrRows counts rows served through a step cache instead of batched
	// waves; IncrHits/IncrMisses/IncrFallbacks break those rows down by
	// cache outcome (see policy.IncrStats — every full recompute is a
	// counted miss or fallback, never silent). IncrSessions is the number
	// of caches held by rollouts in flight (0 when idle).
	IncrRows      uint64 `json:"incr_rows"`
	IncrHits      uint64 `json:"incr_hits"`
	IncrMisses    uint64 `json:"incr_misses"`
	IncrFallbacks uint64 `json:"incr_fallbacks"`
	IncrSessions  int    `json:"incr_sessions"`
}

// pending is one submitted row: the request, and the slot its result is
// written into before done is closed. err is ctx.Err() when the row was
// dropped on cancellation. ic is the submitter's step cache, if any.
type pending struct {
	ctx  context.Context
	req  policy.WaveReq
	ic   *policy.InferCtx
	res  policy.WaveRes
	err  error
	done chan struct{}
}

// Scheduler owns a single runner goroutine and its inference context; all
// forward passes go through it. Safe for concurrent Submit from any number
// of goroutines. The context is not taken from policy's pool: the runner
// holds it for life, and would keep a rollout's warm cache out of the pool.
type Scheduler struct {
	model *policy.Model
	opts  Options

	mu        sync.Mutex
	queue     []*pending
	closed    bool
	submitted uint64
	waves     uint64
	rows      uint64
	dropped   uint64
	shed      uint64
	maxWave   int

	kick      chan struct{}
	stop      chan struct{}
	ran       chan struct{}
	closeOnce sync.Once

	// Incremental-serving counters (see incr.go).
	incrRows, incrHits, incrMisses, incrFallbacks uint64
	incrSessions                                  int

	// incrOn is the resolved Options.Incremental; immutable.
	incrOn bool

	// Runner-owned scratch; only the runner goroutine touches these.
	bc *policy.InferCtx
	// bareIC serves WaveInfer rows submitted without a cache when incrOn
	// (see incr.go); made at the first such row.
	bareIC    *policy.InferCtx
	reqBuf    []policy.WaveReq
	resBuf    []policy.WaveRes
	wavePend  []*pending
	batchPend []*pending
}

// NewScheduler starts a scheduler serving waves for m. Close it to stop the
// runner.
func NewScheduler(m *policy.Model, opts Options) *Scheduler {
	if opts.MaxRows <= 0 {
		opts.MaxRows = 128
	}
	s := &Scheduler{
		model:  m,
		opts:   opts,
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		ran:    make(chan struct{}),
		bc:     policy.NewInferCtx(),
		incrOn: incrEnabled(opts.Incremental, m),
	}
	go s.run()
	return s
}

// Model returns the model the scheduler serves (consumers need its config
// for mode-dependent stepping).
func (s *Scheduler) Model() *policy.Model { return s.model }

// Close stops the runner after serving every already-queued row.
// Idempotent; implements io.Closer.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.ran
	return nil
}

// Stats returns a counter snapshot.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted:     s.submitted,
		Waves:         s.waves,
		Rows:          s.rows,
		DroppedCancel: s.dropped,
		DroppedShed:   s.shed,
		QueueDepth:    len(s.queue),
		MaxWave:       s.maxWave,
	}
	if s.waves > 0 {
		st.MeanWave = float64(s.rows) / float64(s.waves)
	}
	st.IncrRows = s.incrRows
	st.IncrHits = s.incrHits
	st.IncrMisses = s.incrMisses
	st.IncrFallbacks = s.incrFallbacks
	st.IncrSessions = s.incrSessions
	return st
}

// Submit enqueues one row and blocks until its wave executes. The result is
// bit-identical to a wave of one row of req.Kind with the same rng stream.
// If ctx is cancelled while the row is still queued, the row is dropped
// (never joining a wave) and ctx.Err() is returned; if cancellation lands
// after the row is sealed into an executing wave, Submit waits the wave out
// — the wave is reading the caller-owned environment — and returns the
// computed result. Returns ErrClosed after Close.
func (s *Scheduler) Submit(ctx context.Context, req policy.WaveReq) (policy.WaveRes, error) {
	p := &pending{ctx: ctx, req: req, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return policy.WaveRes{}, ErrClosed
	}
	s.submitted++
	s.admitLocked(p)
	s.mu.Unlock()
	s.kickRunner()
	select {
	case <-p.done:
	case <-ctx.Done():
		s.abandon(p) // no-op if already sealed; the wave will close done
		<-p.done
	}
	return p.res, p.err
}

// admitLocked enqueues p, entering degraded mode when ShedDepth is set and
// the queue is at it: the lowest-priority row is shed (resolved with
// ErrShed) to keep the bound — the incoming row itself when nothing queued
// ranks strictly below it (the newer row loses ties), else the newest
// queued row of the lowest priority. The caller holds mu.
func (s *Scheduler) admitLocked(p *pending) {
	if s.opts.ShedDepth > 0 && len(s.queue) >= s.opts.ShedDepth {
		victim := -1
		for i, q := range s.queue {
			qp := Priority(q.ctx)
			if victim < 0 {
				if qp < Priority(p.ctx) {
					victim = i
				}
			} else if qp <= Priority(s.queue[victim].ctx) {
				victim = i
			}
		}
		if victim < 0 {
			s.shed++
			p.err = ErrShed
			close(p.done)
			return
		}
		q := s.queue[victim]
		s.queue = append(s.queue[:victim], s.queue[victim+1:]...)
		s.shed++
		q.err = ErrShed
		close(q.done)
	}
	s.queue = append(s.queue, p)
}

// SubmitMany enqueues a batch of rows in one shot — a lock-step consumer's
// whole wave joins the shared queue atomically, so its rows land in the same
// scheduler wave when capacity allows. Blocks until every row resolves. res
// is an optional reusable slice. The returned error is the first per-row
// submission failure (cancellation drop or ErrClosed); per-row model errors
// (ErrNoMigratableVM) stay in each WaveRes.Err.
func (s *Scheduler) SubmitMany(ctx context.Context, reqs []policy.WaveReq, res []policy.WaveRes) ([]policy.WaveRes, error) {
	return s.submitMany(ctx, reqs, nil, res)
}

// submitMany is SubmitMany with each row carrying its env's step cache from
// caches (none when caches is nil). On return the runner no longer touches
// any of them.
func (s *Scheduler) submitMany(ctx context.Context, reqs []policy.WaveReq, caches map[*sim.Env]*policy.InferCtx, res []policy.WaveRes) ([]policy.WaveRes, error) {
	if cap(res) < len(reqs) {
		res = make([]policy.WaveRes, len(reqs))
	} else {
		res = res[:len(reqs)]
	}
	if len(reqs) == 0 {
		return res, nil
	}
	ps := make([]*pending, len(reqs))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return res, ErrClosed
	}
	for i := range reqs {
		ps[i] = &pending{ctx: ctx, req: reqs[i], ic: caches[reqs[i].Env], done: make(chan struct{})}
		s.admitLocked(ps[i])
	}
	s.submitted += uint64(len(reqs))
	s.mu.Unlock()
	s.kickRunner()
	var firstErr error
	for i, p := range ps {
		select {
		case <-p.done:
		case <-ctx.Done():
			s.abandon(p)
			<-p.done
		}
		res[i] = p.res
		if p.err != nil && firstErr == nil {
			firstErr = p.err
		}
	}
	return res, firstErr
}

// BatchValues scores every cluster state with the critic head through shared
// waves, filling dst. It satisfies the mcts value-prior contract, so an MCTS
// engine's expansion scoring rides the same waves as everyone else's
// inference.
func (s *Scheduler) BatchValues(ctx context.Context, states []*cluster.Cluster, dst []float64) ([]float64, error) {
	reqs := make([]policy.WaveReq, len(states))
	for i, c := range states {
		reqs[i] = policy.WaveReq{Kind: policy.WaveValue, State: c}
	}
	res, err := s.SubmitMany(ctx, reqs, nil)
	if err != nil {
		return nil, err
	}
	if cap(dst) < len(states) {
		dst = make([]float64, len(states))
	} else {
		dst = dst[:len(states)]
	}
	for i := range res {
		dst[i] = res[i].Value
	}
	return dst, nil
}

// kickRunner nudges the runner without blocking (the 1-buffered channel
// collapses concurrent kicks).
func (s *Scheduler) kickRunner() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// abandon removes a still-queued row after its context was cancelled,
// resolving it with ctx.Err(). A row already sealed into a wave is left
// alone (the wave resolves it); cancellation can never corrupt or stall the
// rows sharing its wave.
func (s *Scheduler) abandon(p *pending) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == p {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.dropped++
			p.err = p.ctx.Err()
			close(p.done)
			return
		}
	}
}

// run is the wave loop: wait for work, optionally hold the admission window,
// execute one wave, repeat. On stop it drains the remaining queue so no
// submitter is left blocked.
func (s *Scheduler) run() {
	defer close(s.ran)
	for {
		s.mu.Lock()
		empty := len(s.queue) == 0
		s.mu.Unlock()
		if empty {
			select {
			case <-s.kick:
				continue // re-check the queue
			case <-s.stop:
				s.drain()
				return
			}
		}
		if s.opts.MaxWait > 0 {
			s.admissionWindow()
		}
		s.wave()
		select {
		case <-s.stop:
			s.drain()
			return
		default:
		}
	}
}

// admissionWindow holds the forming wave open for up to MaxWait, closing
// early when MaxRows rows are pending or the scheduler stops.
func (s *Scheduler) admissionWindow() {
	timer := time.NewTimer(s.opts.MaxWait)
	defer timer.Stop()
	for {
		s.mu.Lock()
		full := len(s.queue) >= s.opts.MaxRows
		s.mu.Unlock()
		if full {
			return
		}
		select {
		case <-timer.C:
			return
		case <-s.kick:
		case <-s.stop:
			return
		}
	}
}

// wave seals up to MaxRows live rows, runs one ServeWave, and resolves every
// sealed row. Rows cancelled while queued are dropped here (or in abandon)
// without occupying a wave slot.
func (s *Scheduler) wave() {
	s.mu.Lock()
	s.wavePend = s.wavePend[:0]
	rest := s.queue[:0]
	for _, p := range s.queue {
		if len(s.wavePend) >= s.opts.MaxRows {
			rest = append(rest, p)
			continue
		}
		if p.ctx != nil && p.ctx.Err() != nil {
			s.dropped++
			p.err = p.ctx.Err()
			close(p.done)
			continue
		}
		s.wavePend = append(s.wavePend, p)
	}
	for i := len(rest); i < len(s.queue); i++ {
		s.queue[i] = nil // drop references so resolved rows can be collected
	}
	s.queue = rest
	n := len(s.wavePend)
	if n > 0 {
		s.waves++
		s.rows += uint64(n)
		if n > s.maxWave {
			s.maxWave = n
		}
	}
	s.mu.Unlock()
	if n == 0 {
		return
	}
	// Rows that carry a step cache are served through it, and bare
	// WaveInfer rows through the runner's own when incremental serving is
	// on; everything else shares one batched ServeWave. Both paths produce
	// identical bits for identical requests, so the split never changes
	// results, only which kernels compute them.
	batch := s.batchPend[:0]
	for _, p := range s.wavePend {
		switch {
		case p.ic != nil:
			s.serveIncr(p, p.ic)
		case s.incrOn && p.req.Kind == policy.WaveInfer && p.req.Env != nil:
			if s.bareIC == nil {
				s.bareIC = policy.NewInferCtx()
				s.bareIC.SetIncremental(true)
			}
			s.serveIncr(p, s.bareIC)
		default:
			batch = append(batch, p)
		}
	}
	s.batchPend = batch
	if len(batch) == 0 {
		return
	}
	s.reqBuf = s.reqBuf[:0]
	for _, p := range batch {
		s.reqBuf = append(s.reqBuf, p.req)
	}
	s.resBuf = s.model.ServeWave(s.bc, s.reqBuf, s.resBuf)
	for i, p := range batch {
		p.res = s.resBuf[i] // written before close: the close is the fence
		close(p.done)
	}
}

// drain serves every row still queued after stop so no submitter blocks
// forever; closed=true guarantees no new rows arrive.
func (s *Scheduler) drain() {
	for {
		s.mu.Lock()
		empty := len(s.queue) == 0
		s.mu.Unlock()
		if empty {
			return
		}
		s.wave()
	}
}
