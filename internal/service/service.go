// Package service exposes the rescheduler as an HTTP API — the "central
// server" role of the paper's control plane (section 1): clients submit the
// current VM-PM mapping and receive a migration plan within the latency
// budget. Solvers are pluggable so the same endpoint can serve the
// heuristic, the exact solver, or a trained VMR2L checkpoint.
//
// API v2 is asynchronous-first: POST /v2/jobs enqueues a solve onto a
// bounded worker pool and returns a job id; GET /v2/jobs/{id} reports
// status and, once finished, the plan. POST /v2/reschedule is the
// synchronous variant. Every solve runs under a context deadline,
// so even the exact solver returns a best-so-far anytime plan inside the
// paper's five-second budget instead of a stale optimal one.
//
// Beyond one-shot solves, the server hosts live cluster sessions
// (POST /v2/clusters, from a mapping or a named scenario): clients stream
// VMS arrival/exit churn into a session (POST /v2/clusters/{id}/events,
// explicit events or scenario-driven advance_minutes) and submit
// session-scoped jobs (POST /v2/clusters/{id}/jobs) that snapshot the
// session, solve asynchronously, then validate and repair the plan against
// the drifted live state — the deployment loop of paper Fig. 5, where a
// plan is only as good as what still applies by the time it lands. Session
// job results carry a RepairReport (valid/repaired/dropped, live fragment
// delta) and a plan that applies cleanly to the live cluster.
//
// Sessions are durable: GET /v2/clusters/{id}/snapshot serializes the full
// session (cluster mapping with PM health, dynamics RNG/clock/pending
// evacuations, migration budget, event counters) into a self-describing
// VMR2LSS1 blob, and PUT restores it staged-then-committed with an exact
// invariant — snapshot → restore → Advance is bit-identical to the
// uninterrupted session. A fleet coordinator (internal/coord) uses the pair
// to re-home sessions across replicas on node death. GET /metrics serves
// the server's counters (queue, sessions, PM health, evacuations, plus any
// WithMetrics sources) in Prometheus text format.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/shard"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

// PlanRequest is the body of POST /v2/reschedule and /v2/jobs. The mapping
// uses the dataset JSON schema of internal/trace.
type PlanRequest struct {
	// MNL is the migration number limit; required, > 0.
	MNL int `json:"mnl"`
	// Solver selects the engine; empty means the server default.
	Solver string `json:"solver,omitempty"`
	// Objective: "fr16" (default), "mixed-vm:<lambda>", "mixed-mem:<lambda>".
	Objective string `json:"objective,omitempty"`
	// TimeoutMS shrinks the server's solve budget for this request; values
	// above the engine's configured budget are capped to it (a client can
	// never extend the budget). Honored on every endpoint.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Mapping is the cluster snapshot (trace JSON schema). Must be unset on
	// session-scoped jobs (rejected with 400 otherwise): those snapshot the
	// session cluster instead.
	Mapping json.RawMessage `json:"mapping,omitempty"`
	// Shards > 1 runs the solve through the scale-out pipeline
	// (internal/shard): the cluster is partitioned into up to Shards
	// anti-affinity-preserving parts, every part is solved concurrently
	// under the shared budget, and the merged plan is validated and
	// repaired against the full snapshot. 0 or 1 means no sharding.
	Shards int `json:"shards,omitempty"`
	// Portfolio lists engine registry names raced per shard; the best
	// anytime plan wins. Empty means the single engine from Solver. Setting
	// Portfolio (even with Shards <= 1) always engages the scale-out path,
	// so the response carries per-shard stats.
	Portfolio []string `json:"portfolio,omitempty"`
}

// PlanMigration is one step of the returned plan.
type PlanMigration struct {
	VM     int  `json:"vm"`
	FromPM int  `json:"from_pm"`
	ToPM   int  `json:"to_pm"`
	Swap   bool `json:"swap,omitempty"`
	// Forced marks an evacuation the plan repairer emitted because the VM
	// sat on a Draining/Down PM: mandatory regardless of objective, always
	// kept even when a session migration budget truncates the plan.
	Forced bool `json:"forced,omitempty"`
}

// PlanResponse is the body returned by the reschedule endpoints. Repair
// only ever appears on session-scoped jobs, Sharding only on scale-out
// solves.
type PlanResponse struct {
	Solver    string          `json:"solver"`
	InitialFR float64         `json:"initial_fr"`
	FinalFR   float64         `json:"final_fr"`
	Steps     int             `json:"steps"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Plan      []PlanMigration `json:"plan"`
	// Repair is set on session-scoped jobs: Plan has been validated and
	// repaired against the live session cluster at solve completion, and
	// contains only migrations that apply cleanly to it. InitialFR/FinalFR
	// above remain snapshot-relative; the live truth is in Repair.
	Repair *RepairReport `json:"repair,omitempty"`
	// Sharding is set when the job ran through the scale-out pipeline
	// (PlanRequest.Shards/Portfolio): per-shard statistics plus the
	// merge-then-repair counts against the snapshot.
	Sharding *ShardingReport `json:"sharding,omitempty"`
}

// ShardingReport describes a scale-out solve: how the cluster was
// partitioned, what each shard's engine race produced, and what the merge's
// validate+repair pass did to the concatenated plan.
type ShardingReport struct {
	// Shards is the effective partition count (≤ the requested value).
	Shards int `json:"shards"`
	// OversizedGroups counts anti-affinity components that exceeded shard
	// capacity and were split (the partitioner's documented fallback).
	OversizedGroups int `json:"oversized_groups,omitempty"`
	// PerShard holds one entry per shard: size, winning engine, steps,
	// shard-local fragment rates.
	PerShard []shard.Stat `json:"per_shard"`
	// Repair partitions the merged pre-repair plan into valid / repaired /
	// dropped against the solve snapshot.
	Repair solver.RepairStats `json:"repair"`
}

// JobState enumerates the lifecycle of an async solve.
type JobState string

// Job lifecycle: queued (accepted, waiting for a worker), running,
// then exactly one of succeeded or failed.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobSucceeded JobState = "succeeded"
	JobFailed    JobState = "failed"
)

// JobStatus is the body returned by GET /v2/jobs/{id} (and, with only ID and
// State set, by POST /v2/jobs).
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Solver is the registry name the job runs on.
	Solver string `json:"solver"`
	// Session is set for session-scoped jobs (POST /v2/clusters/{id}/jobs).
	Session string `json:"session,omitempty"`
	// TimedOut reports the solve hit its deadline and the plan is the
	// anytime best-so-far (still valid, possibly shorter than MNL).
	TimedOut bool `json:"timed_out,omitempty"`
	// Result is set once State is succeeded.
	Result *PlanResponse `json:"result,omitempty"`
	// Error is set once State is failed.
	Error string `json:"error,omitempty"`
}

// SolverInfo is one entry of GET /v2/solvers.
type SolverInfo struct {
	// ID is the registry name used in PlanRequest.Solver.
	ID string `json:"id"`
	solver.Meta
	// Default marks the engine used when PlanRequest.Solver is empty.
	Default bool `json:"default,omitempty"`
	// TimeoutMS is the engine's solve budget in milliseconds.
	TimeoutMS int64 `json:"timeout_ms"`
}

// job is the internal unit of work flowing through the worker pool.
type job struct {
	id      string
	name    string // registry name of the engine
	sv      solver.Solver
	mapping *cluster.Cluster
	cfg     sim.Config
	timeout time.Duration
	// engines, when non-empty, routes the job through the scale-out
	// pipeline (internal/shard) with shards partitions: the engines race
	// per shard and the merged plan is repaired against the snapshot.
	engines []shard.Engine
	shards  int
	// sess, when non-nil, makes this a session-scoped job: mapping is a
	// snapshot of the session cluster, and the finished plan is repaired
	// against the live session state before being reported. sessID is its
	// id, kept for status once the job has dropped its inputs.
	sess   *session
	sessID string

	mu       sync.Mutex
	state    JobState
	timedOut bool
	result   *PlanResponse
	err      string
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID: j.id, State: j.state, Solver: j.name, Session: j.sessID,
		TimedOut: j.timedOut, Result: j.result, Error: j.err,
	}
}

// dropInputs forgets what only the solve needed, so a finished job keeps
// its result and pins no cluster, engine or session while it stays
// pollable. Worker goroutine only, with j.mu held.
func (j *job) dropInputs() {
	j.mapping, j.sv, j.engines, j.sess = nil, nil, nil, nil
}

// Server routes rescheduling requests to registered solvers and owns the
// async job queue. Create it with New, register engines, and Close it when
// done to drain the worker pool.
type Server struct {
	mux *http.ServeMux

	mu       sync.RWMutex
	solvers  map[string]solver.Solver
	timeouts map[string]time.Duration
	fallback string

	timeout    time.Duration
	workers    int
	queueDepth int

	jobsMu   sync.RWMutex
	jobs     map[string]*job
	jobOrder []string // submission order, for finished-job eviction
	jobSeq   uint64

	sessMu   sync.RWMutex
	sessions map[string]*session
	sessSeq  uint64

	// Admission-control counters (GET /v2/stats). Monotonic since start.
	statAccepted      atomic.Uint64 // jobs admitted to the bounded queue
	statShed          atomic.Uint64 // jobs refused with 503 (queue full / closing)
	statSessRejected  atomic.Uint64 // session creations refused at maxSessions
	statBudgetDropped atomic.Uint64 // plan migrations truncated by session budgets
	statSnapshots     atomic.Uint64 // session snapshots served (GET .../snapshot)
	statRestores      atomic.Uint64 // sessions restored from snapshots (PUT .../snapshot)

	queue chan *job
	wg    sync.WaitGroup
	// closeMu serializes enqueues against Close: a send on s.queue only
	// happens under the read lock with closed false, so close(s.queue)
	// (under the write lock) can never race a send.
	closeMu  sync.RWMutex
	closed   bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once

	// closers are shared resources (e.g. the continuous-batching inference
	// scheduler) shut down once after the worker pool drains, so no engine
	// still running can submit to a closed resource.
	closers     []io.Closer
	closersOnce sync.Once

	// metricsFns are extra GET /metrics sources (WithMetrics), scraped on
	// every request after the built-in server metrics.
	metricsFns []func() map[string]float64
}

// Option configures a Server at construction time.
type Option func(*Server)

// WithTimeout sets the default per-solve budget. Zero (the default) means
// the paper's five-second limit.
func WithTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithSolverTimeout overrides the solve budget for one engine name — e.g. a
// tighter budget for the exact solver than for the O(ms) heuristics.
func WithSolverTimeout(name string, d time.Duration) Option {
	return func(s *Server) { s.timeouts[name] = d }
}

// WithWorkers sets the worker-pool size (default 4, minimum 1).
func WithWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}

// WithQueueDepth bounds the number of queued-but-not-running jobs (default
// 64, minimum 1). A full queue makes POST /v2/jobs return 503, which is the
// server's backpressure signal.
func WithQueueDepth(n int) Option {
	return func(s *Server) { s.queueDepth = n }
}

// WithCloser attaches a shared resource to the server's lifecycle: Close
// closes it after the worker pool has fully drained, so engines that route
// through it (e.g. the continuous-batching inference scheduler) never see it
// disappear mid-solve. May be given multiple times; closed in order.
func WithCloser(c io.Closer) Option {
	return func(s *Server) { s.closers = append(s.closers, c) }
}

// NewHTTPServer is the production listener for a replica or coordinator
// handler. A client must finish its request header within 10 s, and an idle
// keep-alive connection is closed after 2 min (longer than the default
// client transport's 90 s, so a client never reuses a connection the server
// is closing). Neither bounds a request body or a solve, so large mapping
// uploads are unaffected.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// New builds a server and starts its worker pool. The first registered
// solver is the default engine.
func New(opts ...Option) *Server {
	s := &Server{
		mux:        http.NewServeMux(),
		solvers:    map[string]solver.Solver{},
		timeouts:   map[string]time.Duration{},
		jobs:       map[string]*job{},
		sessions:   map[string]*session{},
		workers:    4,
		queueDepth: 64,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.workers < 1 {
		s.workers = 1
	}
	if s.queueDepth < 1 {
		s.queueDepth = 1
	}
	s.queue = make(chan *job, s.queueDepth)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}

	s.mux.HandleFunc("POST /v2/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v2/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v2/solvers", s.handleSolversV2)
	s.mux.HandleFunc("GET /v2/stats", s.handleStats)
	s.mux.HandleFunc("GET /v2/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v2/reschedule", s.handleRescheduleV2)
	// Live cluster sessions: register once, stream churn, solve against
	// snapshots with validation/repair at completion.
	s.mux.HandleFunc("POST /v2/clusters", s.handleCreateSession)
	s.mux.HandleFunc("GET /v2/clusters/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("DELETE /v2/clusters/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("POST /v2/clusters/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("POST /v2/clusters/{id}/jobs", s.handleSessionJob)
	// Durable session snapshots: GET serializes the full replayable state,
	// PUT restores (or re-homes) a session from one. See snapshot.go.
	s.mux.HandleFunc("GET /v2/clusters/{id}/snapshot", s.handleSnapshotGet)
	s.mux.HandleFunc("PUT /v2/clusters/{id}/snapshot", s.handleSnapshotPut)
	// Prometheus text exposition of the /v2/stats counters plus session
	// aggregates. See metrics.go.
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Close stops accepting new work and shuts the pool down promptly: solves
// already running have their contexts cancelled and finish with their
// anytime best-so-far plans; jobs still queued are failed as cancelled.
// Safe to call more than once and concurrently with in-flight submissions
// (which are refused with 503).
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		s.cancel()
		s.closeMu.Lock()
		s.closed = true
		close(s.queue)
		s.closeMu.Unlock()
	})
	s.wg.Wait()
	s.closersOnce.Do(func() {
		for _, c := range s.closers {
			_ = c.Close()
		}
	})
}

// enqueue hands a job to the worker pool without blocking. It reports
// false when the bounded queue is full or the server is closing.
func (s *Server) enqueue(j *job) bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	select {
	case s.queue <- j:
		return true
	default:
		return false
	}
}

// Register adds a solver under name; the first registration becomes the
// default engine. Safe for concurrent use.
func (s *Server) Register(name string, sv solver.Solver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fallback == "" {
		s.fallback = name
	}
	s.solvers[name] = sv
}

// Solvers returns the registered engine names, sorted, for preflight checks
// (vmr2l-server doctor).
func (s *Server) Solvers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.solvers))
	for n := range s.solvers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup resolves a request's engine name under the read lock.
func (s *Server) lookup(name string) (string, solver.Solver, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		name = s.fallback
	}
	sv, ok := s.solvers[name]
	return name, sv, ok
}

// budgetFor returns the solve budget for one engine: the per-solver
// override, else the server default, else the paper's five-second limit;
// reqMS (from the request body) can only shrink it.
func (s *Server) budgetFor(name string, reqMS int) time.Duration {
	s.mu.RLock()
	budget, ok := s.timeouts[name]
	s.mu.RUnlock()
	if !ok {
		budget = s.timeout
	}
	if budget == 0 {
		budget = solver.FiveSecondLimit
	}
	if reqMS > 0 {
		if req := time.Duration(reqMS) * time.Millisecond; req < budget {
			budget = req
		}
	}
	return budget
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// maxBodyBytes bounds every request body the service reads. It is the
// coordinator's proxy bound, far above any real upload (a hyperscale
// 10k-PM / 100k-VM session snapshot is ~5 MB).
const maxBodyBytes = 1 << 28

// readBody runs decode over r's body, cut off at maxBodyBytes. It answers
// 413 for a body over the bound (declared or read) and 400 for any other
// decode failure, and then returns false.
func readBody(w http.ResponseWriter, r *http.Request, decode func(io.Reader) error) bool {
	var err error = &http.MaxBytesError{Limit: maxBodyBytes}
	if r.ContentLength <= maxBodyBytes {
		err = decode(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "decode request: %v", err)
	}
	return err == nil
}

// readJSON decodes r's JSON body into v; see readBody.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return readBody(w, r, func(b io.Reader) error { return json.NewDecoder(b).Decode(v) })
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// readPlan decodes and validates a one-shot PlanRequest into a runnable job
// (not yet queued). On failure it has answered the client and returns false.
func (s *Server) readPlan(w http.ResponseWriter, r *http.Request) (*job, bool) {
	var req PlanRequest
	if !readJSON(w, r, &req) {
		return nil, false
	}
	j, err := s.newJob(req, func() (*cluster.Cluster, error) {
		c, err := trace.ReadMapping(bytes.NewReader(req.Mapping))
		if err != nil {
			return nil, fmt.Errorf("invalid mapping: %v", err)
		}
		return c, nil
	})
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
	}
	return j, err == nil
}

// newJob validates the engine-facing half of a PlanRequest (MNL, solver,
// objective, budget) shared by the one-shot and session-scoped submission
// paths, then obtains the mapping from the caller-supplied source.
func (s *Server) newJob(req PlanRequest, mapping func() (*cluster.Cluster, error)) (*job, error) {
	if req.MNL <= 0 {
		return nil, fmt.Errorf("mnl must be positive")
	}
	name, sv, ok := s.lookup(req.Solver)
	if !ok {
		// Report the resolved name so a missing *default* engine is named.
		return nil, fmt.Errorf("unknown solver %q", name)
	}
	obj, err := sim.ParseObjective(req.Objective)
	if err != nil {
		return nil, err
	}
	engines, err := s.scaleOutEngines(req, name, sv)
	if err != nil {
		return nil, err
	}
	c, err := mapping()
	if err != nil {
		return nil, err
	}
	return &job{
		name:    name,
		sv:      sv,
		mapping: c,
		cfg:     sim.Config{MNL: req.MNL, Obj: obj},
		timeout: s.budgetFor(name, req.TimeoutMS),
		engines: engines,
		shards:  req.Shards,
		state:   JobQueued,
	}, nil
}

// maxShards bounds the requested partition count; the effective count is
// further capped at the cluster's PM count by the partitioner.
const maxShards = 256

// scaleOutEngines validates the shards/portfolio half of a PlanRequest and
// resolves the engine list raced per shard. A nil result means the job
// takes the plain single-engine path.
func (s *Server) scaleOutEngines(req PlanRequest, name string, sv solver.Solver) ([]shard.Engine, error) {
	if req.Shards < 0 || req.Shards > maxShards {
		return nil, fmt.Errorf("shards must be in [0, %d]", maxShards)
	}
	if req.Shards <= 1 && len(req.Portfolio) == 0 {
		return nil, nil
	}
	if len(req.Portfolio) == 0 {
		return []shard.Engine{{Name: name, S: sv}}, nil
	}
	engines := make([]shard.Engine, 0, len(req.Portfolio))
	for _, pname := range req.Portfolio {
		if pname == "" {
			// Empty names would silently resolve to the default engine.
			return nil, fmt.Errorf("empty portfolio solver name")
		}
		_, rsv, ok := s.lookup(pname)
		if !ok {
			return nil, fmt.Errorf("unknown portfolio solver %q", pname)
		}
		engines = append(engines, shard.Engine{Name: pname, S: rsv})
	}
	return engines, nil
}

// scaleOutLabel is the Solver label of a scale-out response.
func scaleOutLabel(engines []shard.Engine, shards int) string {
	if shards > 1 {
		return fmt.Sprintf("sharded-%d(%s)", shards, shard.Names(engines))
	}
	return fmt.Sprintf("portfolio(%s)", shard.Names(engines))
}

// solve runs one job's engine under its deadline and converts the outcome.
// Scale-out jobs (shards/portfolio set) go through the internal/shard
// pipeline instead of a single engine and report per-shard stats.
// Session-scoped jobs then validate/repair the plan against the live
// session state, which has usually drifted since the snapshot was taken.
func solve(ctx context.Context, j *job) (*PlanResponse, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, j.timeout)
	defer cancel()
	var (
		resp     *PlanResponse
		plan     []sim.Migration
		timedOut bool
	)
	if len(j.engines) > 0 {
		start := time.Now()
		res, err := shard.Solve(ctx, j.mapping, j.cfg, j.engines, shard.Options{Shards: j.shards})
		if err != nil {
			return nil, res.TimedOut, err
		}
		resp = &PlanResponse{
			Solver:    scaleOutLabel(j.engines, len(res.Shards)),
			InitialFR: res.InitialFR,
			FinalFR:   res.FinalFR,
			Steps:     len(res.Plan),
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Sharding: &ShardingReport{
				Shards:          len(res.Shards),
				OversizedGroups: res.OversizedGroups,
				PerShard:        res.Shards,
				Repair:          res.Stats,
			},
		}
		plan = res.Plan
		timedOut = res.TimedOut
	} else {
		res, err := solver.Evaluate(ctx, j.sv, j.mapping, j.cfg)
		if err != nil {
			return nil, res.TimedOut, err
		}
		resp = &PlanResponse{
			Solver:    res.Solver,
			InitialFR: res.InitialFR,
			FinalFR:   res.FinalFR,
			Steps:     res.Steps,
			ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		}
		plan = res.Plan
		timedOut = res.TimedOut
	}
	if j.sess != nil {
		j.sess.mu.Lock()
		rp := solver.RepairPlanObjective(j.sess.c, plan, j.cfg.Obj)
		plan = rp.Plan
		report := &RepairReport{
			RepairStats:   rp.Stats,
			LiveInitialFR: rp.InitialFR,
			LiveFinalFR:   rp.FinalFR,
		}
		if b := j.sess.budget; b > 0 {
			capped, dropped := capPlan(plan, b)
			if dropped > 0 {
				// Re-repair the truncated plan so it still applies cleanly
				// (a dropped move can invalidate a later one that depended on
				// the freed capacity) and the reported live FR stays the truth
				// about the plan actually returned.
				rp2 := solver.RepairPlanObjective(j.sess.c, capped, j.cfg.Obj)
				plan = rp2.Plan
				report.BudgetDropped = dropped
				report.LiveFinalFR = rp2.FinalFR
			}
		}
		j.sess.mu.Unlock()
		resp.Repair = report
	}
	for _, m := range plan {
		resp.Plan = append(resp.Plan, PlanMigration{
			VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap, Forced: m.Forced,
		})
	}
	return resp, timedOut, nil
}

// capPlan enforces a session's migration budget on a repaired plan: forced
// evacuations are always kept (a VM stranded on a Draining/Down PM must move
// whatever the budget says), non-forced migrations are kept in plan order
// until the budget is spent. Returns the kept plan and the dropped count.
func capPlan(plan []sim.Migration, budget int) ([]sim.Migration, int) {
	kept := make([]sim.Migration, 0, len(plan))
	normal := 0
	for _, m := range plan {
		if !m.Forced {
			if normal >= budget {
				continue
			}
			normal++
		}
		kept = append(kept, m)
	}
	return kept, len(plan) - len(kept)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.baseCtx.Err() != nil {
			// Server closing before this job ever ran: fail it honestly
			// rather than reporting a zero-step solve as a success.
			j.mu.Lock()
			j.state, j.err = JobFailed, "canceled: server shut down before the solve started"
			j.dropInputs()
			j.mu.Unlock()
			continue
		}
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		resp, timedOut, err := solve(s.baseCtx, j)
		if resp != nil && resp.Repair != nil && resp.Repair.BudgetDropped > 0 {
			s.statBudgetDropped.Add(uint64(resp.Repair.BudgetDropped))
		}
		j.mu.Lock()
		j.timedOut = timedOut
		if err != nil {
			j.state, j.err = JobFailed, err.Error()
		} else {
			j.state, j.result = JobSucceeded, resp
		}
		j.dropInputs()
		j.mu.Unlock()
	}
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.readPlan(w, r)
	if !ok {
		return
	}
	s.submitJob(w, j)
}

// submitJob allocates an id for a parsed job, enqueues it, records it for
// polling, and writes the 202 — or sheds it with a 503 when the bounded
// queue is full (the job was never recorded then, so nothing leaks).
// Shared by the one-shot and session-scoped submission endpoints.
func (s *Server) submitJob(w http.ResponseWriter, j *job) {
	s.jobsMu.Lock()
	s.jobSeq++
	j.id = fmt.Sprintf("job-%d", s.jobSeq)
	s.jobsMu.Unlock()
	if !s.enqueue(j) {
		s.statShed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		httpError(w, http.StatusServiceUnavailable, "job queue full (%d pending)", s.queueDepth)
		return
	}
	s.statAccepted.Add(1)
	// Record after the enqueue succeeded; the id only reaches the client in
	// the 202 below, so no one can poll before this insert.
	s.jobsMu.Lock()
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictFinishedLocked()
	s.jobsMu.Unlock()
	writeJSON(w, http.StatusAccepted, JobStatus{ID: j.id, State: JobQueued, Solver: j.name, Session: j.sessID})
}

// retryAfter estimates, in whole seconds (minimum 1), when a queue slot is
// likely to free: the pool pulls one job roughly every budget/workers, with
// budget the default engine's solve budget. An honest hint beats the
// constant "1" — a client that comes back too early just burns a retry on
// another 503.
func (s *Server) retryAfter() int {
	s.mu.RLock()
	name := s.fallback
	s.mu.RUnlock()
	per := s.budgetFor(name, 0) / time.Duration(s.workers)
	secs := int((per + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ServerStats is the body of GET /v2/stats: admission-control counters and
// the current capacity picture. Counters are monotonic since server start.
type ServerStats struct {
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	// Queued is the number of jobs sitting in the bounded queue right now.
	Queued   int `json:"queued"`
	Sessions int `json:"sessions"`
	// Accepted/Shed partition every job submission: admitted to the queue
	// versus refused with 503 before any work was done.
	Accepted uint64 `json:"accepted"`
	Shed     uint64 `json:"shed"`
	// SessionsRejected counts session creations refused at the session limit.
	SessionsRejected uint64 `json:"sessions_rejected"`
	// BudgetDropped totals plan migrations truncated by per-session
	// migration budgets (forced evacuations are never among them).
	BudgetDropped uint64 `json:"budget_dropped"`
	// Snapshots/Restores count durable-session traffic: snapshots served and
	// sessions restored from one (GET/PUT /v2/clusters/{id}/snapshot).
	Snapshots uint64 `json:"snapshots,omitempty"`
	Restores  uint64 `json:"restores,omitempty"`
	// RetryAfterSec is the hint currently attached to queue-full 503s.
	RetryAfterSec int `json:"retry_after_sec"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.sessMu.RLock()
	sessions := len(s.sessions)
	s.sessMu.RUnlock()
	writeJSON(w, http.StatusOK, ServerStats{
		Workers:          s.workers,
		QueueCap:         s.queueDepth,
		Queued:           len(s.queue),
		Sessions:         sessions,
		Accepted:         s.statAccepted.Load(),
		Shed:             s.statShed.Load(),
		SessionsRejected: s.statSessRejected.Load(),
		BudgetDropped:    s.statBudgetDropped.Load(),
		Snapshots:        s.statSnapshots.Load(),
		Restores:         s.statRestores.Load(),
		RetryAfterSec:    s.retryAfter(),
	})
}

// maxRetainedJobs bounds the job store: beyond it, the oldest *finished*
// jobs are forgotten (their results have been pollable since completion).
// Queued and running jobs are never evicted.
const maxRetainedJobs = 4096

func (s *Server) evictFinishedLocked() {
	if len(s.jobs) <= maxRetainedJobs {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j, ok := s.jobs[id]
		if !ok {
			continue // evicted in an earlier pass
		}
		st := j.status().State
		if len(s.jobs) > maxRetainedJobs && (st == JobSucceeded || st == JobFailed) {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// handleListJobs serves GET /v2/jobs: every retained job in submission
// order, optionally filtered with ?status=queued|running|succeeded|failed.
// Finished jobs beyond the retention bound have been evicted and no longer
// appear (see maxRetainedJobs).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	filter := JobState(r.URL.Query().Get("status"))
	switch filter {
	case "", JobQueued, JobRunning, JobSucceeded, JobFailed:
	default:
		httpError(w, http.StatusBadRequest, "unknown status %q", filter)
		return
	}
	s.jobsMu.RLock()
	jobs := make([]*job, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.jobsMu.RUnlock()
	// Statuses are read outside the store lock: job state has its own mutex.
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		if filter != "" && st.State != filter {
			continue
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.RLock()
	j, ok := s.jobs[r.PathValue("id")]
	s.jobsMu.RUnlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleSolversV2(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos := make([]SolverInfo, 0, len(s.solvers))
	for id, sv := range s.solvers {
		infos = append(infos, SolverInfo{ID: id, Meta: sv.Meta(), Default: id == s.fallback})
	}
	s.mu.RUnlock()
	for i := range infos {
		infos[i].TimeoutMS = s.budgetFor(infos[i].ID, 0).Milliseconds()
	}
	sort.Slice(infos, func(i, k int) bool { return infos[i].ID < infos[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"solvers": infos})
}

// handleRescheduleV2 is the synchronous solve: decode, solve under the
// request's budget, answer with the plan.
func (s *Server) handleRescheduleV2(w http.ResponseWriter, r *http.Request) {
	j, ok := s.readPlan(w, r)
	if !ok {
		return
	}
	resp, timedOut, err := solve(r.Context(), j)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "solver failed: %v", err)
		return
	}
	if timedOut {
		// The engine hit its budget; the plan is the anytime best-so-far.
		// Flag it so operators can pick a faster engine. The value is the
		// observed solve time, not the configured budget.
		elapsed := time.Duration(resp.ElapsedMS * float64(time.Millisecond)).Round(time.Microsecond)
		w.Header().Set("X-Latency-Budget-Exceeded", elapsed.String())
	}
	writeJSON(w, http.StatusOK, resp)
}
