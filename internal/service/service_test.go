package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/mcts"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/trace"
)

func testServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s := New(opts...)
	t.Cleanup(s.Close)
	s.Register("ha", heuristics.HA{})
	s.Register("swap-ha", heuristics.SwapHA{TopK: 6})
	return s
}

func mappingJSON(t *testing.T, seed int64) ([]byte, *cluster.Cluster) {
	t.Helper()
	c := trace.MustProfile("tiny").GenerateFragmented(rand.New(rand.NewSource(seed)), 0.12, 10)
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c
}

func postJSON(t *testing.T, s *Server, path string, req PlanRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func postPlan(t *testing.T, s *Server, req PlanRequest) (*httptest.ResponseRecorder, *PlanResponse) {
	t.Helper()
	w := postJSON(t, s, "/v2/reschedule", req)
	if w.Code != http.StatusOK {
		return w, nil
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &keys); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if _, ok := keys["elapsed_ms"]; !ok {
		t.Error("response lost elapsed_ms")
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return w, &resp
}

func TestRescheduleEndToEnd(t *testing.T) {
	s := testServer(t)
	mapping, c := mappingJSON(t, 1)
	w, resp := postPlan(t, s, PlanRequest{MNL: 6, Mapping: mapping})
	if resp == nil {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Solver != "HA" {
		t.Errorf("default solver %q", resp.Solver)
	}
	if resp.FinalFR > resp.InitialFR {
		t.Errorf("plan worsened FR: %v -> %v", resp.InitialFR, resp.FinalFR)
	}
	// Replaying the returned plan on the original mapping reaches FinalFR.
	replay := c.Clone()
	var plan []sim.Migration
	for _, m := range resp.Plan {
		plan = append(plan, sim.Migration{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap})
	}
	if _, skipped := sim.ApplyPlan(replay, plan); skipped != 0 {
		t.Fatalf("replay skipped %d migrations", skipped)
	}
	if got := replay.FragRate(16); got != resp.FinalFR {
		t.Errorf("replayed FR %v != reported %v", got, resp.FinalFR)
	}
}

func TestRescheduleSolverSelectionAndObjective(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 2)
	w, resp := postPlan(t, s, PlanRequest{MNL: 4, Solver: "swap-ha", Objective: "mixed-mem:0.5", Mapping: mapping})
	if resp == nil {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if resp.Solver != "SwapHA(6)" {
		t.Errorf("solver %q", resp.Solver)
	}
}

func TestRescheduleValidation(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 3)
	cases := []struct {
		name string
		req  PlanRequest
		code int
	}{
		{"zero mnl", PlanRequest{MNL: 0, Mapping: mapping}, http.StatusBadRequest},
		{"unknown solver", PlanRequest{MNL: 3, Solver: "nope", Mapping: mapping}, http.StatusBadRequest},
		{"bad objective", PlanRequest{MNL: 3, Objective: "wat", Mapping: mapping}, http.StatusBadRequest},
		{"bad mapping", PlanRequest{MNL: 3, Mapping: []byte(`{"pms": 5}`)}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		// Validation must agree across sync and async submission.
		for _, path := range []string{"/v2/reschedule", "/v2/jobs"} {
			if w := postJSON(t, s, path, tc.req); w.Code != tc.code {
				t.Errorf("%s %s: status %d, want %d (%s)", tc.name, path, w.Code, tc.code, w.Body.String())
			}
		}
	}
	// Wrong method.
	r := httptest.NewRequest(http.MethodGet, "/v2/reschedule", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", w.Code)
	}
	// Malformed body.
	r = httptest.NewRequest(http.MethodPost, "/v2/reschedule", bytes.NewBufferString("{nope"))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Errorf("malformed body status %d", w.Code)
	}
}

func TestSolversAndHealth(t *testing.T) {
	s := testServer(t)
	var got struct {
		Solvers []SolverInfo `json:"solvers"`
	}
	if code := getJSON(t, s, "/v2/solvers", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Solvers) != 2 || got.Solvers[0].ID != "ha" || !got.Solvers[0].Default || got.Solvers[1].Default {
		t.Errorf("solvers = %+v", got.Solvers)
	}
	r := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Errorf("healthz status %d", w.Code)
	}
}

func TestParseObjective(t *testing.T) {
	// The grammar lives in sim.ParseObjective; this locks the server-facing
	// accept/reject behavior.
	for _, spec := range []string{"", "fr16", "mixed-vm:0.5", "mixed-mem:1"} {
		if _, err := sim.ParseObjective(spec); err != nil {
			t.Errorf("ParseObjective(%q): %v", spec, err)
		}
	}
	rejects := []string{
		"x", "fr32", "mixed-vm:2", "mixed-mem:-1", "mixed-vm:",
		"mixed-mem:", "mixed-vm:0.5x", "mixed-mem:abc", "mixed-vm:NaN--",
		"mixed-vm", "MIXED-VM:0.5",
	}
	for _, spec := range rejects {
		if _, err := sim.ParseObjective(spec); err == nil {
			t.Errorf("ParseObjective(%q) accepted", spec)
		}
	}
}

// --- API v2 ---

func getJSON(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
	}
	return w.Code
}

func submitJob(t *testing.T, s *Server, req PlanRequest) JobStatus {
	t.Helper()
	w := postJSON(t, s, "/v2/jobs", req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", w.Code, w.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != JobQueued {
		t.Fatalf("submit returned %+v", st)
	}
	return st
}

func waitJob(t *testing.T, s *Server, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var st JobStatus
		if code := getJSON(t, s, "/v2/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("job %s: status %d", id, code)
		}
		if st.State == JobSucceeded || st.State == JobFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q after %v", id, st.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestV2JobLifecycle(t *testing.T) {
	s := testServer(t)
	mapping, c := mappingJSON(t, 4)
	st := submitJob(t, s, PlanRequest{MNL: 6, Mapping: mapping})
	final := waitJob(t, s, st.ID, 5*time.Second)
	if final.State != JobSucceeded {
		t.Fatalf("job failed: %+v", final)
	}
	if final.Result == nil || final.Result.Solver != "HA" {
		t.Fatalf("result = %+v", final.Result)
	}
	// The async result replays exactly like the sync one.
	replay := c.Clone()
	var plan []sim.Migration
	for _, m := range final.Result.Plan {
		plan = append(plan, sim.Migration{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap})
	}
	if _, skipped := sim.ApplyPlan(replay, plan); skipped != 0 {
		t.Fatalf("replay skipped %d migrations", skipped)
	}
	if got := replay.FragRate(16); got != final.Result.FinalFR {
		t.Errorf("replayed FR %v != reported %v", got, final.Result.FinalFR)
	}
	// Unknown job id is a 404.
	if code := getJSON(t, s, "/v2/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d", code)
	}
}

func TestV2ConcurrentSubmission(t *testing.T) {
	s := testServer(t, WithWorkers(4), WithQueueDepth(64))
	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mapping, _ := mappingJSON(t, int64(i%5))
			w := postJSON(t, s, "/v2/jobs", PlanRequest{MNL: 4, Mapping: mapping})
			if w.Code != http.StatusAccepted {
				t.Errorf("submit %d: status %d: %s", i, w.Code, w.Body.String())
				return
			}
			var st JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" {
			t.Fatal("missing job id")
		}
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		if st := waitJob(t, s, id, 10*time.Second); st.State != JobSucceeded {
			t.Errorf("job %s: %+v", id, st)
		}
	}
}

func TestV2QueueBackpressure(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(1))
	t.Cleanup(s.Close)
	block := make(chan struct{})
	s.Register("block", blockingSolver{release: block})
	mapping, _ := mappingJSON(t, 6)
	// One job runs, one sits in the queue; the rest must be shed with 503.
	sawBusy := false
	for i := 0; i < 4; i++ {
		w := postJSON(t, s, "/v2/jobs", PlanRequest{MNL: 2, Mapping: mapping})
		switch w.Code {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			sawBusy = true
		default:
			t.Fatalf("submit %d: unexpected status %d", i, w.Code)
		}
	}
	close(block)
	if !sawBusy {
		t.Error("bounded queue never returned 503")
	}
}

func TestV2SubmitAfterClose(t *testing.T) {
	s := New(WithWorkers(1))
	s.Register("ha", heuristics.HA{})
	mapping, _ := mappingJSON(t, 10)
	s.Close()
	// A submission racing (or following) Close must be shed, not panic.
	w := postJSON(t, s, "/v2/jobs", PlanRequest{MNL: 2, Mapping: mapping})
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after close: status %d, want 503", w.Code)
	}
}

// blockingSolver parks until released (or ctx expires) — a stand-in for an
// arbitrarily slow engine.
type blockingSolver struct{ release chan struct{} }

func (b blockingSolver) Meta() solver.Meta {
	return solver.Meta{Name: "block", Description: "test-only blocking engine"}
}

func (b blockingSolver) Solve(ctx context.Context, env *sim.Env) error {
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return nil
}

// TestV2DeadlineReturnsPartialPlan is the acceptance gate for the anytime
// contract: every registered engine, submitted through /v2/jobs with a 50 ms
// budget, must come back within ~2x the deadline holding a valid (possibly
// partial) plan.
func TestV2DeadlineReturnsPartialPlan(t *testing.T) {
	s := New(WithWorkers(2), WithQueueDepth(16))
	t.Cleanup(s.Close)
	s.Register("ha", heuristics.HA{})
	s.Register("swap-ha", heuristics.SwapHA{})
	s.Register("vbpp", heuristics.VBPP{})
	// Deliberately unbounded searches: only the context deadline stops them.
	s.Register("bnb", &exact.Solver{AllowLoss: true})
	s.Register("pop", exact.POP{Parts: 4, Inner: exact.Solver{AllowLoss: true}})
	s.Register("mcts", &mcts.Solver{Iterations: 1 << 20, Width: 8, Seed: 1})
	s.Register("vmr2l", &policy.Agent{Model: policy.New(policy.Config{
		DModel: 16, Hidden: 32, Blocks: 1,
		Extractor: policy.SparseAttention, Action: policy.TwoStage, Seed: 1,
	}), Opts: policy.SampleOpts{Greedy: true}})

	// A mapping big enough that exhaustive search cannot finish in 50 ms.
	c := trace.MustProfile("medium-small").GenerateFragmented(rand.New(rand.NewSource(7)), 0.15, 30)
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	const budget = 50 * time.Millisecond
	var infos struct {
		Solvers []SolverInfo `json:"solvers"`
	}
	if code := getJSON(t, s, "/v2/solvers", &infos); code != http.StatusOK {
		t.Fatalf("/v2/solvers: %d", code)
	}
	if len(infos.Solvers) != 7 {
		t.Fatalf("expected 7 engines, got %d", len(infos.Solvers))
	}
	for _, info := range infos.Solvers {
		t.Run(info.ID, func(t *testing.T) {
			st := submitJob(t, s, PlanRequest{
				MNL: 40, Solver: info.ID, TimeoutMS: int(budget.Milliseconds()),
				Mapping: buf.Bytes(),
			})
			start := time.Now()
			final := waitJob(t, s, st.ID, 5*time.Second)
			if final.State != JobSucceeded {
				t.Fatalf("job: %+v", final)
			}
			// Wall-clock from first poll overstates solve time (queue wait);
			// the engine's own elapsed must respect ~2x the budget (wider
			// under the race detector, which slows compute ~10x).
			margin := 2 * budget
			if raceDetectorEnabled {
				margin = 20 * budget
			}
			if got := time.Duration(final.Result.ElapsedMS * float64(time.Millisecond)); got > margin {
				t.Errorf("solve took %v, budget %v (waited %v)", got, budget, time.Since(start))
			}
			// The (possibly partial) plan must replay cleanly and not worsen FR.
			replay := c.Clone()
			var plan []sim.Migration
			for _, m := range final.Result.Plan {
				plan = append(plan, sim.Migration{VM: m.VM, FromPM: m.FromPM, ToPM: m.ToPM, Swap: m.Swap})
			}
			if _, skipped := sim.ApplyPlan(replay, plan); skipped != 0 {
				t.Fatalf("partial plan skipped %d migrations on replay", skipped)
			}
			if got := replay.FragRate(16); got != final.Result.FinalFR {
				t.Errorf("replayed FR %v != reported %v", got, final.Result.FinalFR)
			}
			// Search engines only ever commit net-improving plans; the
			// untrained policy rollout ("vmr2l") has no such guarantee.
			if info.ID != "vmr2l" && final.Result.FinalFR > final.Result.InitialFR+1e-9 {
				t.Errorf("%s worsened FR under deadline: %v -> %v",
					info.ID, final.Result.InitialFR, final.Result.FinalFR)
			}
		})
	}
}

// TestV1V2Parity locks what pre-v2 clients get after the /v1 routes were
// retired: the old paths answer 404 rather than a stale shape, and
// /v2/reschedule serves the exact body v1 served — the same six keys and no
// others, with values identical across repeated requests except the
// wall-clock elapsed_ms.
func TestV1V2Parity(t *testing.T) {
	s := testServer(t)
	for _, path := range []string{"/v1/reschedule", "/v1/solvers"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, w.Code)
		}
	}
	v1Keys := []string{"elapsed_ms", "final_fr", "initial_fr", "plan", "solver", "steps"}
	mapping, _ := mappingJSON(t, 8)
	for _, req := range []PlanRequest{
		{MNL: 6, Mapping: mapping},
		{MNL: 4, Solver: "swap-ha", Objective: "mixed-vm:0.5", Mapping: mapping},
	} {
		var bodies [2]map[string]any
		for i := range bodies {
			w := postJSON(t, s, "/v2/reschedule", req)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
			if err := json.Unmarshal(w.Body.Bytes(), &bodies[i]); err != nil {
				t.Fatal(err)
			}
		}
		keys := make([]string, 0, len(bodies[0]))
		for k := range bodies[0] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, v1Keys) {
			t.Errorf("response keys %v, want the v1 set %v", keys, v1Keys)
		}
		delete(bodies[0], "elapsed_ms")
		delete(bodies[1], "elapsed_ms")
		if !reflect.DeepEqual(bodies[0], bodies[1]) {
			t.Errorf("repeated v2 bodies differ:\n%v\n%v", bodies[0], bodies[1])
		}
	}
}

func TestV2SolversMetadata(t *testing.T) {
	s := testServer(t, WithSolverTimeout("swap-ha", 250*time.Millisecond))
	var got struct {
		Solvers []SolverInfo `json:"solvers"`
	}
	if code := getJSON(t, s, "/v2/solvers", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got.Solvers) != 2 {
		t.Fatalf("solvers = %+v", got.Solvers)
	}
	byID := map[string]SolverInfo{}
	for _, info := range got.Solvers {
		byID[info.ID] = info
	}
	ha := byID["ha"]
	if ha.Name != "HA" || !ha.Anytime || !ha.Deterministic || !ha.Default {
		t.Errorf("ha info = %+v", ha)
	}
	if ms := byID["swap-ha"].TimeoutMS; ms != 250 {
		t.Errorf("swap-ha timeout = %dms, want 250", ms)
	}
	if ms := ha.TimeoutMS; ms != solver.FiveSecondLimit.Milliseconds() {
		t.Errorf("ha timeout = %dms, want default %d", ms, solver.FiveSecondLimit.Milliseconds())
	}
}

// TestHTTPServerDropsStalledHeader: the production listener disconnects a
// client that stops part way through its request header instead of holding
// the connection open forever. The test shortens the header deadline so the
// stall is seen in milliseconds; the mechanism is the same field.
func TestHTTPServerDropsStalledHeader(t *testing.T) {
	srv := NewHTTPServer("127.0.0.1:0", testServer(t))
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("production server without timeouts: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: replica\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected: %v", err)
	}
}

// TestOversizeBodyIs413 covers every route that reads a request body: one
// declared over maxBodyBytes gets 413 before it is read, and creates no job
// or session and applies no event. The same bodies at their true length
// are accepted, so the refusal comes from the bound alone.
func TestOversizeBodyIs413(t *testing.T) {
	s := testServer(t)
	mapping, _ := mappingJSON(t, 9)
	live := createSession(t, s, SessionRequest{Scenario: "static"})
	gone := createSession(t, s, SessionRequest{ID: "gone", Scenario: "static"})
	blob := getSnapshot(t, s, gone.ID)
	s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodDelete, "/v2/clusters/"+gone.ID, nil))
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	routes := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v2/jobs", body(PlanRequest{MNL: 3, Mapping: mapping})},
		{http.MethodPost, "/v2/reschedule", body(PlanRequest{MNL: 3, Mapping: mapping})},
		{http.MethodPost, "/v2/clusters", body(SessionRequest{Scenario: "static"})},
		{http.MethodPost, "/v2/clusters/" + live.ID + "/events", body(EventsRequest{AdvanceMinutes: 5})},
		{http.MethodPost, "/v2/clusters/" + live.ID + "/jobs", body(PlanRequest{MNL: 3})},
		{http.MethodPut, "/v2/clusters/" + gone.ID + "/snapshot", blob},
	}
	send := func(method, path string, b []byte, declared int64) *httptest.ResponseRecorder {
		r := httptest.NewRequest(method, path, bytes.NewReader(b))
		r.ContentLength = declared
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		return w
	}
	for _, rt := range routes {
		if w := send(rt.method, rt.path, rt.body, maxBodyBytes+1); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s: status %d, want 413: %s", rt.method, rt.path, w.Code, w.Body.String())
		}
	}
	s.jobsMu.RLock()
	jobs := len(s.jobs)
	s.jobsMu.RUnlock()
	s.sessMu.RLock()
	sessions := len(s.sessions)
	s.sessMu.RUnlock()
	var st SessionStatus
	getJSON(t, s, "/v2/clusters/"+live.ID, &st)
	if jobs != 0 || sessions != 1 || st.Minute != 0 {
		t.Fatalf("oversize bodies left %d jobs, %d sessions, session minute %d; want 0, 1, 0", jobs, sessions, st.Minute)
	}
	for _, rt := range routes {
		if w := send(rt.method, rt.path, rt.body, int64(len(rt.body))); w.Code/100 != 2 {
			t.Errorf("%s %s at true length: status %d: %s", rt.method, rt.path, w.Code, w.Body.String())
		}
	}
}
