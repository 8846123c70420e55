package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"vmr2l/internal/cluster"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sched"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

// Cluster sessions are the live half of the serving story (paper Fig. 5):
// instead of mailing a frozen snapshot with every request, a client
// registers a cluster once, streams the VMS arrival/exit churn into it, and
// submits session-scoped reschedule jobs. Each job snapshots the session,
// solves asynchronously on the snapshot, and — because the session has
// usually drifted by the time the solve lands — validates and repairs the
// plan against the live state before reporting it, with repair stats
// (valid/repaired/dropped and the true live fragment delta) in the
// response.

// SessionRequest is the body of POST /v2/clusters. Exactly one of Mapping
// (a snapshot in the trace JSON schema) or Scenario (a registered scenario
// name, built server-side) must be set.
type SessionRequest struct {
	Mapping json.RawMessage `json:"mapping,omitempty"`
	// Scenario names a registry entry (GET /v2/scenarios lists them); the
	// session's dynamics (mix, rate shape) come from the scenario.
	Scenario string `json:"scenario,omitempty"`
	// ID, when set, names the session instead of the server-assigned
	// sess-N. A fleet coordinator sets it to keep session ids globally
	// unique across replicas (each replica numbers its own sessions).
	// Creation fails with 409 when the id is already in use.
	ID string `json:"id,omitempty"`
	// Seed drives the scenario build and the session's event stream;
	// 0 means the scenario's default seed.
	Seed int64 `json:"seed,omitempty"`
	// MigrationBudget caps the non-forced migrations any session-scoped job
	// may return: repaired plans are truncated to the budget, with the
	// dropped count reported (RepairReport.BudgetDropped). Forced
	// evacuations — VMs stranded on Draining/Down PMs — are exempt and
	// always survive truncation. 0 means unlimited.
	MigrationBudget int `json:"migration_budget,omitempty"`
}

// SessionEvent is one explicit event applied to a session: a VM arrival, a
// VM exit, or — when Health is set — a PM availability transition (the
// API-driven face of failure injection).
type SessionEvent struct {
	// Arrive true adds a VM of the named standard flavor (placed by
	// best-fit); false removes a VM. Ignored when Health is set.
	Arrive bool `json:"arrive"`
	// Type is the arriving VM's flavor name (e.g. "xlarge").
	Type string `json:"type,omitempty"`
	// VM selects the exiting VM; nil means a uniformly random placed VM.
	VM *int `json:"vm,omitempty"`
	// Health, when non-empty, makes this a PM health transition instead:
	// "down" crashes the PM, "draining" starts a maintenance drain, "up"
	// recovers it. Crashing or draining marks the hosted VMs
	// evacuation-pending under the session's evacuation deadline; pending
	// evacuations resolve as simulated minutes advance.
	Health string `json:"health,omitempty"`
	// PM is the target of a health transition; required with Health.
	PM *int `json:"pm,omitempty"`
}

// EventsRequest is the body of POST /v2/clusters/{id}/events. The dynamics
// clock advances first (generating scenario churn), then the explicit
// events apply in order.
type EventsRequest struct {
	AdvanceMinutes int            `json:"advance_minutes,omitempty"`
	Events         []SessionEvent `json:"events,omitempty"`
}

// EventStats mirrors sched.Stats on the wire. The failure counters are
// omitted while zero, so healthy-fleet sessions keep their pre-failure wire
// shape.
type EventStats struct {
	Minutes  int `json:"minutes"`
	Events   int `json:"events"`
	Arrivals int `json:"arrivals"`
	Rejected int `json:"rejected"`
	Exits    int `json:"exits"`
	// Failure dynamics (scenario-driven or explicit health events).
	Crashes    int `json:"crashes,omitempty"`
	Drains     int `json:"drains,omitempty"`
	Recoveries int `json:"recoveries,omitempty"`
	// Evacuated/EvacCancelled/EvacLost partition every VM ever marked
	// evacuation-pending (less the still-pending ones): migrated off in
	// time, made moot by recovery or churn, or honestly lost at the
	// deadline with the fleet full.
	Evacuated     int `json:"evacuated,omitempty"`
	EvacCancelled int `json:"evac_cancelled,omitempty"`
	EvacLost      int `json:"evac_lost,omitempty"`
}

// toEventStats is the single sched.Stats -> wire conversion point.
func toEventStats(st sched.Stats) EventStats {
	return EventStats{
		Minutes: st.Minutes, Events: st.Events,
		Arrivals: st.Arrivals, Rejected: st.Rejected, Exits: st.Exits,
		Crashes: st.Crashes, Drains: st.Drains, Recoveries: st.Recoveries,
		Evacuated: st.Evacuated, EvacCancelled: st.EvacCancelled, EvacLost: st.EvacLost,
	}
}

// SessionStatus is the wire state of a cluster session.
type SessionStatus struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario,omitempty"`
	// PMs and VMs describe the live cluster (VMs counts placed VMs only).
	PMs int `json:"pms"`
	VMs int `json:"vms"`
	// Minute is the session's simulated clock.
	Minute int `json:"minute"`
	// FR is the live 16-core fragment rate.
	FR float64 `json:"fr"`
	// Health counts PMs by availability state.
	Health HealthStatus `json:"health"`
	// PendingEvacuations counts VMs currently marked for forced migration
	// off a Draining/Down PM (they resolve as minutes advance).
	PendingEvacuations int `json:"pending_evacuations,omitempty"`
	// Totals since session creation.
	Stats EventStats `json:"stats"`
	// Applied is set on event responses: the delta of just that request.
	Applied *EventStats `json:"applied,omitempty"`
	// Rev counts state-mutating requests applied to the session since
	// creation (or since the revision recorded in a restored snapshot). A
	// coordinator compares it against the rev of its last snapshot to skip
	// re-snapshotting idle sessions.
	Rev uint64 `json:"rev,omitempty"`
}

// HealthStatus counts a session's PMs by availability state.
type HealthStatus struct {
	Up       int `json:"up"`
	Draining int `json:"draining"`
	Down     int `json:"down"`
}

// RepairReport is attached to session-scoped job results: what plan
// validation/repair did once the solve finished against the drifted live
// state. The embedded RepairStats (valid/repaired/dropped, partitioning
// the solver's plan) inlines into the JSON body.
type RepairReport struct {
	solver.RepairStats
	// LiveInitialFR/LiveFinalFR are the true fragment rates of the live
	// session cluster before and after the repaired plan — as opposed to
	// the snapshot-relative initial_fr/final_fr of the solve itself.
	LiveInitialFR float64 `json:"live_initial_fr"`
	LiveFinalFR   float64 `json:"live_final_fr"`
	// BudgetDropped counts non-forced migrations truncated from the plan by
	// the session's migration budget; LiveFinalFR above describes the
	// truncated plan, not the untruncated one.
	BudgetDropped int `json:"budget_dropped,omitempty"`
}

// session is one live cluster registered with the server. All access to the
// cluster and its dynamics engine happens under mu: cluster reads warm lazy
// aggregates, so even queries are writes.
type session struct {
	id       string
	scenario string

	// budget caps non-forced migrations per job result (0 = unlimited);
	// immutable after creation, so reads need no lock.
	budget int

	// Snapshot identity (immutable after creation): the seed and counted
	// source position determine the RNG stream; spec and mix rebuild the
	// dynamics engine declaratively on restore, with no registry lookup.
	seed int64
	spec scenario.DynamicsSpec
	mix  []cluster.VMType

	mu  sync.Mutex
	c   *cluster.Cluster
	dyn *sched.Dynamics
	// src is the session RNG's counted source (guarded by mu like the
	// engine that draws from it).
	src *sched.CountedSource
	// rev counts state-mutating requests (events, restores). Jobs never
	// mutate session state (they solve on a clone), so rev is the dirty
	// marker a coordinator needs to skip re-snapshotting idle sessions.
	rev uint64
}

func (sess *session) status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.statusLocked()
}

func (sess *session) statusLocked() SessionStatus {
	counts := sess.c.HealthCounts()
	return SessionStatus{
		ID:       sess.id,
		Scenario: sess.scenario,
		PMs:      len(sess.c.PMs),
		VMs:      sess.c.CountPlaced(),
		Minute:   sess.dyn.Minute(),
		FR:       sess.c.FragRate(cluster.DefaultFragCores),
		Health: HealthStatus{
			Up:       counts[cluster.Up],
			Draining: counts[cluster.Draining],
			Down:     counts[cluster.Down],
		},
		PendingEvacuations: len(sess.dyn.PendingEvacuations(nil)),
		Stats:              toEventStats(sess.dyn.Stats()),
		Rev:                sess.rev,
	}
}

// jsonUnset reports whether a raw JSON field is absent or JSON null (a
// marshaled zero-value RawMessage arrives as the literal "null").
func jsonUnset(raw json.RawMessage) bool {
	return len(raw) == 0 || bytes.Equal(bytes.TrimSpace(raw), []byte("null"))
}

// maxSessions bounds concurrently registered sessions; beyond it creation
// returns 503 until clients DELETE old sessions.
const maxSessions = 1024

// maxAdvanceMinutes bounds one events request to a week of simulated time:
// the advance runs synchronously under the session lock, so an unbounded
// value would let a single request pin a CPU and block the session
// indefinitely. Longer simulations just issue several requests.
const maxAdvanceMinutes = 7 * 24 * 60

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	if jsonUnset(req.Mapping) == (req.Scenario == "") {
		httpError(w, http.StatusBadRequest, "exactly one of mapping or scenario must be set")
		return
	}
	if req.MigrationBudget < 0 {
		httpError(w, http.StatusBadRequest, "migration_budget must be >= 0")
		return
	}
	if req.ID != "" && !validSessionID(req.ID) {
		httpError(w, http.StatusBadRequest, "session id must be 1-64 chars of [A-Za-z0-9._-]")
		return
	}
	var (
		c        *cluster.Cluster
		scenName string
		spec     scenario.DynamicsSpec
		mix      []cluster.VMType
	)
	seed := req.Seed
	if req.Scenario != "" {
		sc, err := scenario.Get(req.Scenario)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if seed == 0 {
			seed = sc.Seed
		}
		scenName, spec, mix = sc.Name, sc.Dynamics, sc.Mix()
	} else {
		var err error
		c, err = trace.ReadMapping(bytes.NewReader(req.Mapping))
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid mapping: %v", err)
			return
		}
		// Mapping sessions default to the paper's diurnal churn over the
		// standard flavor mix, so advance_minutes works out of the box;
		// explicit events need no rate at all.
		if seed == 0 {
			seed = 1
		}
		spec = scenario.DynamicsSpec{Shape: scenario.Diurnal, Rate: 2}
		mix = cluster.StandardTypes
	}
	// The session RNG runs on a counted source so its position serializes
	// into snapshots as (seed, draws); the stream is identical to the plain
	// rand.NewSource it replaced.
	src := sched.NewCountedSource(seed)
	rng := rand.New(src)
	if req.Scenario != "" {
		sc, _ := scenario.Get(req.Scenario)
		var err error
		c, err = sc.Build(rng)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	dyn := spec.NewDynamics(c, rng, mix)
	// Sessions are long-lived: recycle dead VM records so weeks of simulated
	// churn don't grow the cluster (and every job snapshot) without bound.
	dyn.SetReuseSlots(true)
	sess := &session{
		scenario: scenName, budget: req.MigrationBudget,
		seed: seed, spec: spec, mix: mix,
		c: c, dyn: dyn, src: src,
	}
	s.sessMu.Lock()
	if req.ID != "" {
		if _, dup := s.sessions[req.ID]; dup {
			s.sessMu.Unlock()
			httpError(w, http.StatusConflict, "session %q already exists", req.ID)
			return
		}
	}
	if len(s.sessions) >= maxSessions {
		s.sessMu.Unlock()
		s.statSessRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "session limit reached (%d)", maxSessions)
		return
	}
	if req.ID != "" {
		sess.id = req.ID
	} else {
		s.sessSeq++
		sess.id = fmt.Sprintf("sess-%d", s.sessSeq)
	}
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	writeJSON(w, http.StatusCreated, sess.status())
}

// validSessionID bounds client-supplied session ids to a safe URL-path
// charset.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) lookupSession(id string) (*session, bool) {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown cluster session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown cluster session %q", id)
		return
	}
	// In-flight jobs against the session keep their snapshot and repair
	// against the orphaned cluster; they finish normally.
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown cluster session %q", r.PathValue("id"))
		return
	}
	var req EventsRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.AdvanceMinutes < 0 || req.AdvanceMinutes > maxAdvanceMinutes {
		httpError(w, http.StatusBadRequest, "advance_minutes must be in [0, %d]", maxAdvanceMinutes)
		return
	}
	// Validate arrival types and health transitions before mutating anything.
	types := make([]cluster.VMType, len(req.Events))
	for i, ev := range req.Events {
		switch {
		case ev.Health != "":
			switch ev.Health {
			case "up", "draining", "down":
			default:
				httpError(w, http.StatusBadRequest, "event %d: unknown health state %q (want up, draining, or down)", i, ev.Health)
				return
			}
			if ev.PM == nil {
				httpError(w, http.StatusBadRequest, "event %d: health transition needs a pm", i)
				return
			}
		case ev.Arrive:
			t, ok := cluster.TypeByName(ev.Type)
			if !ok {
				httpError(w, http.StatusBadRequest, "event %d: unknown vm type %q", i, ev.Type)
				return
			}
			types[i] = t
		}
	}
	sess.mu.Lock()
	sess.rev++
	before := sess.dyn.Stats()
	if req.AdvanceMinutes > 0 {
		sess.dyn.Advance(req.AdvanceMinutes)
	}
	for i, ev := range req.Events {
		switch {
		case ev.Health != "":
			// Idempotent by design: Crash/Drain/Recover refuse transitions
			// from the wrong state (and out-of-range PMs) rather than erroring
			// a half-applied batch.
			switch ev.Health {
			case "down":
				sess.dyn.Crash(*ev.PM)
			case "draining":
				sess.dyn.Drain(*ev.PM)
			case "up":
				sess.dyn.Recover(*ev.PM)
			}
		case ev.Arrive:
			sess.dyn.Arrive(types[i])
		case ev.VM != nil:
			sess.dyn.Exit(*ev.VM)
		default:
			sess.dyn.ExitRandom()
		}
	}
	delta := toEventStats(sess.dyn.Stats().Sub(before))
	st := sess.statusLocked()
	sess.mu.Unlock()
	st.Applied = &delta
	writeJSON(w, http.StatusOK, st)
}

// handleSessionJob submits a session-scoped reschedule job: the session is
// snapshotted under its lock, the solve runs asynchronously on the worker
// pool, and the finished plan is validated/repaired against the live
// session state (see solve).
func (s *Server) handleSessionJob(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown cluster session %q", r.PathValue("id"))
		return
	}
	var req PlanRequest
	if !readJSON(w, r, &req) {
		return
	}
	if !jsonUnset(req.Mapping) {
		httpError(w, http.StatusBadRequest, "session jobs take their mapping from the session; leave mapping unset")
		return
	}
	j, err := s.parseSessionJob(req, sess)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submitJob(w, j)
}

// parseSessionJob validates a session-scoped PlanRequest via the shared
// newJob path, snapshotting the session cluster as the job's mapping.
func (s *Server) parseSessionJob(req PlanRequest, sess *session) (*job, error) {
	j, err := s.newJob(req, func() (*cluster.Cluster, error) {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		return sess.c.Clone(), nil
	})
	if err != nil {
		return nil, err
	}
	j.sess, j.sessID = sess, sess.id
	return j, nil
}

// ScenarioInfo is one entry of GET /v2/scenarios.
type ScenarioInfo struct {
	ID          string  `json:"id"`
	Description string  `json:"description"`
	Profile     string  `json:"profile"`
	Shape       string  `json:"shape"`
	Objective   string  `json:"objective"`
	MNL         int     `json:"mnl"`
	MinFR       float64 `json:"min_fr,omitempty"`
	Affinity    int     `json:"affinity_level,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	infos := make([]ScenarioInfo, 0)
	for _, sc := range scenario.All() {
		shape := string(sc.Dynamics.Shape)
		if shape == "" {
			shape = string(scenario.Static)
		}
		infos = append(infos, ScenarioInfo{
			ID: sc.Name, Description: sc.Description, Profile: sc.Profile,
			Shape: shape, Objective: sc.Objective, MNL: sc.MNL,
			MinFR: sc.MinFR, Affinity: sc.AffinityLevel,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": infos})
}
