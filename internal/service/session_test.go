package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"vmr2l/internal/cluster"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

func postRaw(t *testing.T, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func createSession(t *testing.T, s *Server, req SessionRequest) SessionStatus {
	t.Helper()
	w := postRaw(t, s, "/v2/clusters", req)
	if w.Code != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", w.Code, w.Body.String())
	}
	var st SessionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.PMs == 0 {
		t.Fatalf("create session returned %+v", st)
	}
	return st
}

func TestSessionFromScenario(t *testing.T) {
	s := testServer(t)
	st := createSession(t, s, SessionRequest{Scenario: "diurnal", Seed: 3})
	if st.Scenario != "diurnal" || st.Minute != 0 || st.VMs == 0 {
		t.Fatalf("status = %+v", st)
	}
	var got SessionStatus
	if code := getJSON(t, s, "/v2/clusters/"+st.ID, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got.ID != st.ID || got.FR != st.FR {
		t.Fatalf("GET status %+v != created %+v", got, st)
	}
}

func TestSessionFromMapping(t *testing.T) {
	s := testServer(t)
	mapping, c := mappingJSON(t, 5)
	st := createSession(t, s, SessionRequest{Mapping: mapping})
	if st.VMs != c.CountPlaced() || st.PMs != len(c.PMs) {
		t.Fatalf("status = %+v, want %d PMs / %d VMs", st, len(c.PMs), c.CountPlaced())
	}
}

func TestSessionCreateValidation(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 5)
	cases := []struct {
		name string
		req  SessionRequest
	}{
		{"neither", SessionRequest{}},
		{"both", SessionRequest{Mapping: mapping, Scenario: "diurnal"}},
		{"unknown scenario", SessionRequest{Scenario: "no-such"}},
		{"bad mapping", SessionRequest{Mapping: []byte(`{"pms": 5}`)}},
	}
	for _, tc := range cases {
		if w := postRaw(t, s, "/v2/clusters", tc.req); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
	if code := getJSON(t, s, "/v2/clusters/sess-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", code)
	}
}

func TestSessionExplicitEvents(t *testing.T) {
	s := testServer(t)
	mapping, c := mappingJSON(t, 6)
	st := createSession(t, s, SessionRequest{Mapping: mapping})
	vm0 := 0
	w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{Events: []SessionEvent{
		{Arrive: true, Type: "xlarge"},
		{Arrive: true, Type: "large"},
		{Arrive: false, VM: &vm0},
		{Arrive: false}, // random exit
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("events: status %d: %s", w.Code, w.Body.String())
	}
	var got SessionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Applied == nil || got.Applied.Events != 4 {
		t.Fatalf("applied = %+v, want 4 events", got.Applied)
	}
	if got.Applied.Arrivals+got.Applied.Rejected != 2 || got.Applied.Exits != 2 {
		t.Fatalf("applied = %+v", got.Applied)
	}
	if got.VMs != c.CountPlaced()+got.Applied.Arrivals-2 {
		t.Fatalf("vms = %d", got.VMs)
	}
	// The live session cluster stays valid.
	sess, ok := s.lookupSession(st.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	sess.mu.Lock()
	err := sess.c.Validate()
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Unknown flavor is rejected before any mutation.
	if w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{Events: []SessionEvent{
		{Arrive: true, Type: "mega-huge"},
	}}); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown type: status %d", w.Code)
	}
	// Out-of-range advances are rejected (the advance runs under the
	// session lock; see maxAdvanceMinutes).
	for _, mins := range []int{-1, maxAdvanceMinutes + 1} {
		if w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{AdvanceMinutes: mins}); w.Code != http.StatusBadRequest {
			t.Fatalf("advance %d: status %d, want 400", mins, w.Code)
		}
	}
}

func TestSessionAdvanceGeneratesChurn(t *testing.T) {
	s := testServer(t)
	st := createSession(t, s, SessionRequest{Scenario: "diurnal", Seed: 2})
	w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{AdvanceMinutes: 60})
	if w.Code != http.StatusOK {
		t.Fatalf("advance: status %d: %s", w.Code, w.Body.String())
	}
	var got SessionStatus
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Minute != 60 || got.Applied == nil || got.Applied.Minutes != 60 {
		t.Fatalf("status = %+v applied %+v", got, got.Applied)
	}
	if got.Applied.Events == 0 {
		t.Fatal("60 diurnal minutes generated no events")
	}
}

func TestSessionDelete(t *testing.T) {
	s := testServer(t)
	st := createSession(t, s, SessionRequest{Scenario: "static"})
	r := httptest.NewRequest(http.MethodDelete, "/v2/clusters/"+st.ID, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}
	if code := getJSON(t, s, "/v2/clusters/"+st.ID, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still there: %d", code)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v2/clusters/"+st.ID, nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", w.Code)
	}
}

// TestFinishedJobPinsNoSessionCluster: a finished session job keeps its
// result, not its inputs. Once the job has succeeded and its upload session
// is deleted, the session's cluster is collected, while the job still polls
// to the same status.
func TestFinishedJobPinsNoSessionCluster(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 5)
	st := createSession(t, s, SessionRequest{Mapping: mapping})
	s.sessMu.RLock()
	live := weak.Make(s.sessions[st.ID].c)
	s.sessMu.RUnlock()

	w := postRaw(t, s, "/v2/clusters/"+st.ID+"/jobs", PlanRequest{MNL: 4})
	if w.Code != http.StatusAccepted {
		t.Fatalf("session job: status %d: %s", w.Code, w.Body.String())
	}
	var queued JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &queued); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, queued.ID, 10*time.Second)
	if done.State != JobSucceeded || done.Session != st.ID {
		t.Fatalf("session job: %+v", done)
	}
	w = httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodDelete, "/v2/clusters/"+st.ID, nil))
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", w.Code)
	}

	for i := 0; i < 5 && live.Value() != nil; i++ {
		runtime.GC()
	}
	if live.Value() != nil {
		t.Fatal("the deleted session's cluster is still reachable after its job finished")
	}
	var again JobStatus
	if code := getJSON(t, s, "/v2/jobs/"+queued.ID, &again); code != http.StatusOK {
		t.Fatalf("finished job no longer pollable: status %d", code)
	}
	if !reflect.DeepEqual(again, done) {
		t.Fatalf("job status changed after the session went: %+v != %+v", again, done)
	}
}

func TestScenarioListing(t *testing.T) {
	s := testServer(t)
	var got struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if code := getJSON(t, s, "/v2/scenarios", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Scenarios) < 5 {
		t.Fatalf("scenarios = %+v", got.Scenarios)
	}
	seen := map[string]bool{}
	for _, sc := range got.Scenarios {
		seen[sc.ID] = true
	}
	for _, want := range []string{"static", "diurnal", "burst", "drain", "memory-intensive"} {
		if !seen[want] {
			t.Errorf("scenario %q missing from listing", want)
		}
	}
}

func TestSessionJobValidation(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 7)
	st := createSession(t, s, SessionRequest{Scenario: "static"})
	cases := []struct {
		name string
		req  PlanRequest
	}{
		{"mapping set", PlanRequest{MNL: 4, Mapping: mapping}},
		{"zero mnl", PlanRequest{}},
		{"unknown solver", PlanRequest{MNL: 4, Solver: "nope"}},
		{"bad objective", PlanRequest{MNL: 4, Objective: "wat"}},
	}
	for _, tc := range cases {
		if w := postRaw(t, s, "/v2/clusters/"+st.ID+"/jobs", tc.req); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, w.Code)
		}
	}
	if w := postRaw(t, s, "/v2/clusters/sess-999/jobs", PlanRequest{MNL: 4}); w.Code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", w.Code)
	}
}

// gatedSolver runs an inner engine, then parks until released — the hook
// that lets a test drive session churn while the job is provably in flight.
type gatedSolver struct {
	inner   solver.Solver
	started chan struct{}
	release chan struct{}
}

func (g *gatedSolver) Meta() solver.Meta {
	return solver.Meta{Name: "gated", Description: "test-only gated engine", Anytime: true}
}

func (g *gatedSolver) Solve(ctx context.Context, env *sim.Env) error {
	close(g.started)
	err := g.inner.Solve(ctx, env)
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return err
}

// TestSessionJobRepairsAgainstDriftedState is the end-to-end acceptance
// test: a session lives through 30+ simulated minutes of diurnal churn
// while a reschedule job is running; the returned plan must contain only
// migrations that apply cleanly to the live session cluster, with repair
// stats reported.
func TestSessionJobRepairsAgainstDriftedState(t *testing.T) {
	s := New(WithWorkers(2))
	t.Cleanup(s.Close)
	gate := &gatedSolver{inner: heuristics.HA{}, started: make(chan struct{}), release: make(chan struct{})}
	s.Register("gated-ha", gate)

	st := createSession(t, s, SessionRequest{Scenario: "diurnal", Seed: 11})
	w := postRaw(t, s, "/v2/clusters/"+st.ID+"/jobs", PlanRequest{MNL: 12, Solver: "gated-ha"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	var job JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}
	if job.Session != st.ID {
		t.Fatalf("job session = %q, want %q", job.Session, st.ID)
	}

	// The job is provably mid-solve; now the cluster lives on: >= 30
	// minutes of diurnal churn around the midday peak (minute clock starts
	// at 0, so jump the rate by advancing in chunks).
	<-gate.started
	var total EventStats
	for i := 0; i < 3; i++ {
		w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{AdvanceMinutes: 12})
		if w.Code != http.StatusOK {
			t.Fatalf("advance %d: status %d: %s", i, w.Code, w.Body.String())
		}
		var got SessionStatus
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		total.Minutes += got.Applied.Minutes
		total.Events += got.Applied.Events
	}
	if total.Minutes < 30 {
		t.Fatalf("advanced only %d minutes", total.Minutes)
	}
	if total.Events == 0 {
		t.Fatal("no churn generated — the drift premise is vacuous")
	}
	close(gate.release)

	final := waitJob(t, s, job.ID, 10*time.Second)
	if final.State != JobSucceeded {
		t.Fatalf("job: %+v", final)
	}
	res := final.Result
	if res.Repair == nil {
		t.Fatal("session job result has no repair report")
	}
	if res.Steps == 0 {
		t.Fatal("solver produced an empty plan — the repair premise is vacuous")
	}
	if got := res.Repair.Valid + res.Repair.Repaired; got != len(res.Plan) {
		t.Fatalf("plan has %d migrations but repair reports %d valid+repaired (%+v)",
			len(res.Plan), got, res.Repair)
	}
	if res.Repair.Valid+res.Repair.Repaired+res.Repair.Dropped != res.Steps {
		t.Fatalf("repair stats %+v don't partition the %d-step solve", res.Repair, res.Steps)
	}

	// The returned plan must apply cleanly to the live session cluster and
	// land exactly on the reported live FR.
	sess, ok := s.lookupSession(st.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	sess.mu.Lock()
	live := sess.c.Clone()
	sess.mu.Unlock()
	if got := live.FragRate(cluster.DefaultFragCores); got != res.Repair.LiveInitialFR {
		t.Fatalf("live FR %v != reported live_initial_fr %v", got, res.Repair.LiveInitialFR)
	}
	var plan []sim.Migration
	for _, m := range res.Plan {
		plan = append(plan, sim.Migration{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap})
	}
	applied, skipped := sim.ApplyPlan(live, plan)
	if skipped != 0 {
		t.Fatalf("repaired plan skipped %d of %d migrations on the live cluster", skipped, applied+skipped)
	}
	if err := live.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := live.FragRate(cluster.DefaultFragCores); got != res.Repair.LiveFinalFR {
		t.Fatalf("achieved live FR %v != reported live_final_fr %v", got, res.Repair.LiveFinalFR)
	}
}

// TestSessionConcurrentEventsAndJobs is the race surface: many goroutines
// stream events while session jobs run. Run under -race in CI.
func TestSessionConcurrentEventsAndJobs(t *testing.T) {
	s := New(WithWorkers(4))
	t.Cleanup(s.Close)
	s.Register("ha", heuristics.HA{})
	st := createSession(t, s, SessionRequest{Scenario: "diurnal", Seed: 5})

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				w := postRaw(t, s, "/v2/clusters/"+st.ID+"/events", EventsRequest{
					AdvanceMinutes: 2,
					Events:         []SessionEvent{{Arrive: true, Type: "large"}, {Arrive: false}},
				})
				if w.Code != http.StatusOK {
					errs <- w.Body.String()
					return
				}
			}
		}()
	}
	ids := make([]string, 3)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postRaw(t, s, "/v2/clusters/"+st.ID+"/jobs", PlanRequest{MNL: 6})
			if w.Code != http.StatusAccepted {
				errs <- w.Body.String()
				return
			}
			var job JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
				errs <- err.Error()
				return
			}
			ids[i] = job.ID
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for _, id := range ids {
		if st := waitJob(t, s, id, 10*time.Second); st.State != JobSucceeded || st.Result.Repair == nil {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	sess, _ := s.lookupSession(st.ID)
	sess.mu.Lock()
	err := sess.c.Validate()
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}
