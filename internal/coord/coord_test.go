package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmr2l/internal/client"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/service"
)

func TestRingDeterministicAndStable(t *testing.T) {
	names := []string{"r1", "r2", "r3"}
	r1 := newRing(names, 64)
	r2 := newRing(names, 64)
	owners := map[string]string{}
	perReplica := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("sess-%d", i)
		o := r1.owner(key, nil)
		if o == "" {
			t.Fatal("empty owner")
		}
		if o2 := r2.owner(key, nil); o2 != o {
			t.Fatalf("ring not deterministic: %q vs %q for %s", o, o2, key)
		}
		owners[key] = o
		perReplica[o]++
	}
	// Vnodes spread load: nobody owns everything or nothing.
	for _, name := range names {
		if perReplica[name] == 0 || perReplica[name] == 300 {
			t.Fatalf("degenerate distribution: %v", perReplica)
		}
	}
	// Killing one replica moves only its keys: survivors keep theirs.
	for key, o := range owners {
		if o == "r2" {
			continue
		}
		if got := r1.owner(key, func(n string) bool { return n != "r2" }); got != o {
			t.Fatalf("key %s moved from %s to %s though %s is alive", key, o, got, o)
		}
	}
	// And the dead replica's keys all land on survivors.
	for key, o := range owners {
		if o != "r2" {
			continue
		}
		if got := r1.owner(key, func(n string) bool { return n != "r2" }); got == "r2" || got == "" {
			t.Fatalf("key %s still owned by dead replica (%q)", key, got)
		}
	}
}

// testReplica is one live vmr2l-server behind a real listener.
type testReplica struct {
	name string
	s    *service.Server
	srv  *httptest.Server
}

func startFleet(t *testing.T, n int) ([]*testReplica, map[string]string) {
	t.Helper()
	reps := make([]*testReplica, 0, n)
	urls := map[string]string{}
	for i := 0; i < n; i++ {
		s := service.New()
		s.Register("ha", heuristics.HA{})
		srv := httptest.NewServer(s)
		rep := &testReplica{name: fmt.Sprintf("r%d", i+1), s: s, srv: srv}
		t.Cleanup(func() { rep.srv.Close(); rep.s.Close() })
		reps = append(reps, rep)
		urls[rep.name] = srv.URL
	}
	return reps, urls
}

func testCoord(t *testing.T, urls map[string]string, mutate ...func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Heartbeat:     -1, // test-driven: CheckNow only
		SnapshotEvery: -1, // test-driven: SnapshotAll only
		SuspectAfter:  1,
		DownAfter:     2,
		Client:        &http.Client{Timeout: 2 * time.Second},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	co := New(urls, cfg)
	t.Cleanup(co.Close)
	return co
}

func coordJSON(t *testing.T, co *Coordinator, method, path string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	r := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, r)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s: %v (%s)", method, path, err, w.Body.String())
		}
	}
	return w.Code
}

// killOwner closes the replica owning the given session and returns it.
func killOwner(t *testing.T, co *Coordinator, reps []*testReplica, sessID string) *testReplica {
	t.Helper()
	co.mu.RLock()
	owner := co.assign[sessID]
	co.mu.RUnlock()
	for _, rep := range reps {
		if rep.name == owner {
			rep.srv.CloseClientConnections()
			rep.srv.Close()
			return rep
		}
	}
	t.Fatalf("no replica owns %q", sessID)
	return nil
}

func TestCoordinatorFailover(t *testing.T) {
	reps, urls := startFleet(t, 3)
	co := testCoord(t, urls)

	// Create sessions through the coordinator; they spread over the ring.
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var st service.SessionStatus
		code := coordJSON(t, co, http.MethodPost, "/v2/clusters",
			service.SessionRequest{Scenario: "diurnal", Seed: int64(i + 1)}, &st)
		if code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	// Advance everything, then snapshot the dirty sessions.
	for _, id := range ids {
		if code := coordJSON(t, co, http.MethodPost, "/v2/clusters/"+id+"/events",
			service.EventsRequest{AdvanceMinutes: 10}, nil); code != http.StatusOK {
			t.Fatalf("advance %s: status %d", id, code)
		}
	}
	if taken := co.SnapshotAll(); taken != 6 {
		t.Fatalf("SnapshotAll took %d snapshots, want 6", taken)
	}
	// Idle sessions are skipped on the next pass (rev unchanged).
	if taken := co.SnapshotAll(); taken != 0 {
		t.Fatalf("SnapshotAll re-took %d snapshots of idle sessions", taken)
	}

	// Remember each session's status at the snapshot point.
	want := map[string]service.SessionStatus{}
	for _, id := range ids {
		var st service.SessionStatus
		if code := coordJSON(t, co, http.MethodGet, "/v2/clusters/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("status %s: %d", id, code)
		}
		want[id] = st
	}

	// Kill the replica owning the first session.
	dead := killOwner(t, co, reps, ids[0])
	var moved []string
	for id := range want {
		co.mu.RLock()
		owner := co.assign[id]
		co.mu.RUnlock()
		if owner == dead.name {
			moved = append(moved, id)
		}
	}
	if len(moved) == 0 {
		t.Fatal("dead replica owned no sessions; test is vacuous")
	}

	// Before the failover is detected, traffic to its sessions answers an
	// honest 503 with Retry-After — not a hang, not a silent error.
	r := httptest.NewRequest(http.MethodGet, "/v2/clusters/"+moved[0], nil)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("pre-failover request: code %d, Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}

	// Two failed heartbeats declare it Down and re-home its sessions.
	co.CheckNow()
	co.CheckNow()

	fs := co.Fleet()
	if fs.Stats.Rehomed != uint64(len(moved)) {
		t.Fatalf("rehomed = %d, want %d", fs.Stats.Rehomed, len(moved))
	}
	if fs.Stats.Rehomed != fs.Stats.Restored+fs.Stats.RestoreFailed {
		t.Fatalf("accounting broken: rehomed %d != restored %d + restore_failed %d",
			fs.Stats.Rehomed, fs.Stats.Restored, fs.Stats.RestoreFailed)
	}
	if fs.Stats.RestoreFailed != 0 {
		t.Fatalf("restore_failed = %d with two healthy survivors", fs.Stats.RestoreFailed)
	}
	if fs.Rehoming != 0 || fs.Lost != 0 {
		t.Fatalf("fleet left rehoming=%d lost=%d", fs.Rehoming, fs.Lost)
	}
	if !fs.RingOK {
		t.Fatal("ring_ok false after completed failover")
	}

	// Re-homed sessions serve from survivors with exactly their snapshot
	// state, and keep advancing.
	for _, id := range moved {
		var st service.SessionStatus
		if code := coordJSON(t, co, http.MethodGet, "/v2/clusters/"+id, nil, &st); code != http.StatusOK {
			t.Fatalf("post-failover status %s: %d", id, code)
		}
		w := want[id]
		if st.Minute != w.Minute || st.Stats != w.Stats || st.FR != w.FR {
			t.Fatalf("session %s restored state mismatch:\n  want %+v\n  got  %+v", id, w, st)
		}
		co.mu.RLock()
		owner := co.assign[id]
		co.mu.RUnlock()
		if owner == dead.name {
			t.Fatalf("session %s still assigned to dead replica", id)
		}
		if code := coordJSON(t, co, http.MethodPost, "/v2/clusters/"+id+"/events",
			service.EventsRequest{AdvanceMinutes: 5}, &st); code != http.StatusOK {
			t.Fatalf("post-failover advance %s: %d", id, code)
		}
		if st.Minute != w.Minute+5 {
			t.Fatalf("session %s minute %d after advance, want %d", id, st.Minute, w.Minute+5)
		}
	}
	// Surviving sessions were untouched.
	for _, id := range ids {
		co.mu.RLock()
		owner := co.assign[id]
		co.mu.RUnlock()
		if owner == "" {
			t.Fatalf("session %s lost its assignment", id)
		}
	}
}

func TestCoordinatorAllReplicasDead(t *testing.T) {
	reps, urls := startFleet(t, 2)
	co := testCoord(t, urls)
	var st service.SessionStatus
	if code := coordJSON(t, co, http.MethodPost, "/v2/clusters",
		service.SessionRequest{Scenario: "diurnal", Seed: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, rep := range reps {
		rep.srv.CloseClientConnections()
		rep.srv.Close()
	}
	co.CheckNow()
	co.CheckNow()
	fs := co.Fleet()
	if fs.Stats.Rehomed != fs.Stats.Restored+fs.Stats.RestoreFailed {
		t.Fatalf("accounting broken: %+v", fs.Stats)
	}
	if fs.Stats.RestoreFailed == 0 || fs.Lost == 0 {
		t.Fatalf("want lost sessions with the whole fleet dead, got %+v", fs)
	}
	// Lost sessions answer 410 Gone, not 404 or a hang.
	r := httptest.NewRequest(http.MethodGet, "/v2/clusters/"+st.ID, nil)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, r)
	if w.Code != http.StatusGone {
		t.Fatalf("lost session: code %d, want 410 (%s)", w.Code, w.Body.String())
	}
	// New session creations also answer honestly: 503 + Retry-After.
	code := coordJSON(t, co, http.MethodPost, "/v2/clusters",
		service.SessionRequest{Scenario: "diurnal", Seed: 2}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create with dead fleet: %d, want 503", code)
	}
}

// TestCoordinatorThroughClient drives the coordinator with the standard
// client: create, advance, session-scoped job (namespaced id), wait, and —
// with RedirectReads — status reads that 307 to the replica.
func TestCoordinatorThroughClient(t *testing.T) {
	_, urls := startFleet(t, 3)
	co := testCoord(t, urls, func(c *Config) { c.RedirectReads = true })
	srv := httptest.NewServer(co)
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	sess, st, err := cl.CreateSession(ctx, service.SessionRequest{Scenario: "diurnal", Seed: 3})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !strings.HasPrefix(st.ID, "fleet-") {
		t.Fatalf("coordinator did not name the session: %q", st.ID)
	}
	// Status goes through a 307 redirect to the replica; http.Client
	// follows it natively.
	resp, err := http.Get(srv.URL + "/v2/clusters/" + sess.ID())
	if err != nil {
		t.Fatalf("status via redirect: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("status via redirect: %s", resp.Status)
	}
	var got service.SessionStatus
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("status via redirect: %v", err)
	}
	if got.ID != st.ID {
		t.Fatalf("status id %q, want %q", got.ID, st.ID)
	}
	if _, err := sess.Advance(ctx, 5); err != nil {
		t.Fatalf("advance: %v", err)
	}
	id, err := sess.Submit(ctx, service.PlanRequest{MNL: 4})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !strings.Contains(id, "~") {
		t.Fatalf("job id %q not namespaced", id)
	}
	js, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if js.Result == nil || js.Result.Repair == nil {
		t.Fatalf("job result missing repair report: %+v", js)
	}
	if js.ID != id {
		t.Fatalf("job status id %q, want namespaced %q", js.ID, id)
	}
}

// TestCoordinatorJobLostWithReplica: a job result that died with its
// replica answers 410 Gone and is counted.
func TestCoordinatorJobLostWithReplica(t *testing.T) {
	reps, urls := startFleet(t, 2)
	co := testCoord(t, urls)
	var st service.SessionStatus
	if code := coordJSON(t, co, http.MethodPost, "/v2/clusters",
		service.SessionRequest{Scenario: "diurnal", Seed: 1}, &st); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	var job service.JobStatus
	if code := coordJSON(t, co, http.MethodPost, "/v2/clusters/"+st.ID+"/jobs",
		service.PlanRequest{MNL: 4}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	dead := killOwner(t, co, reps, st.ID)
	co.CheckNow()
	co.CheckNow()
	if !strings.HasPrefix(job.ID, dead.name+"~") {
		t.Fatalf("job %q not owned by killed replica %s", job.ID, dead.name)
	}
	r := httptest.NewRequest(http.MethodGet, "/v2/jobs/"+job.ID, nil)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, r)
	if w.Code != http.StatusGone {
		t.Fatalf("lost job: code %d, want 410 (%s)", w.Code, w.Body.String())
	}
	if co.Fleet().Stats.LostJobs != 1 {
		t.Fatalf("lost_jobs = %d, want 1", co.Fleet().Stats.LostJobs)
	}
}

func TestCoordinatorMetricsAndFleet(t *testing.T) {
	_, urls := startFleet(t, 2)
	co := testCoord(t, urls)
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	co.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"vmr2l_coord_replicas_up 2",
		"vmr2l_coord_rehomed_total 0",
		"# TYPE vmr2l_coord_restored_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	var fs FleetStatus
	if code := coordJSON(t, co, http.MethodGet, "/v2/fleet", nil, &fs); code != http.StatusOK {
		t.Fatalf("fleet: %d", code)
	}
	if len(fs.Replicas) != 2 || !fs.RingOK {
		t.Fatalf("fleet = %+v", fs)
	}
}
