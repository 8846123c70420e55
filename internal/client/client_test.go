package client

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/service"
	"vmr2l/internal/trace"
)

func testSetup(t *testing.T) (*Client, []byte) {
	t.Helper()
	s := service.New(service.WithWorkers(2))
	t.Cleanup(s.Close)
	s.Register("ha", heuristics.HA{})
	s.Register("swap-ha", heuristics.SwapHA{TopK: 6})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	c := trace.MustProfile("tiny").GenerateFragmented(rand.New(rand.NewSource(1)), 0.12, 10)
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	return New(srv.URL, WithPollInterval(2*time.Millisecond)), buf.Bytes()
}

func TestClientSolvers(t *testing.T) {
	cl, _ := testSetup(t)
	var out struct {
		Solvers []service.SolverInfo `json:"solvers"`
	}
	if err := cl.do(context.Background(), http.MethodGet, "/v2/solvers", nil, &out); err != nil {
		t.Fatal(err)
	}
	infos := out.Solvers
	if len(infos) != 2 {
		t.Fatalf("solvers = %+v", infos)
	}
	if infos[0].ID != "ha" || !infos[0].Default || infos[0].Name != "HA" {
		t.Errorf("first solver = %+v", infos[0])
	}
}

func TestClientSyncReschedule(t *testing.T) {
	cl, mapping := testSetup(t)
	var resp service.PlanResponse
	if err := cl.do(context.Background(), http.MethodPost, "/v2/reschedule", service.PlanRequest{MNL: 6, Mapping: mapping}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "HA" || resp.FinalFR > resp.InitialFR {
		t.Errorf("response = %+v", resp)
	}
}

func TestClientSubmitWaitRun(t *testing.T) {
	cl, mapping := testSetup(t)
	ctx := context.Background()
	id, err := cl.Submit(ctx, service.PlanRequest{MNL: 4, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.JobSucceeded || st.Result == nil {
		t.Fatalf("status = %+v", st)
	}
}

func TestClientDeadlineBecomesServerBudget(t *testing.T) {
	s := service.New(service.WithWorkers(1))
	t.Cleanup(s.Close)
	// Unbounded exhaustive search: only a deadline can stop it.
	s.Register("bnb", &exact.Solver{AllowLoss: true})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	c := trace.MustProfile("medium-small").GenerateFragmented(rand.New(rand.NewSource(3)), 0.15, 30)
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	cl := New(srv.URL, WithPollInterval(2*time.Millisecond))
	// Generous enough to absorb loaded-machine jitter, still far below the
	// 5 s default budget the solve would otherwise run to.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	id, err := cl.Submit(ctx, service.PlanRequest{MNL: 40, Mapping: buf.Bytes()})
	if err != nil {
		t.Fatalf("submit with 2s ctx: %v (after %v)", err, time.Since(start))
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait with 2s ctx: %v (after %v)", err, time.Since(start))
	}
	resp := st.Result
	// Without ctx-to-budget propagation the solve would run the full 5s
	// default and the ctx would end the wait instead.
	if wall := time.Since(start); wall > 3*time.Second {
		t.Errorf("round-trip took %v, ctx budget was 2s", wall)
	}
	if resp.FinalFR > resp.InitialFR {
		t.Errorf("anytime plan worsened FR: %v -> %v", resp.InitialFR, resp.FinalFR)
	}
}

func TestClientErrors(t *testing.T) {
	cl, mapping := testSetup(t)
	ctx := context.Background()
	// Bad request surfaces as a StatusError with the server's message.
	_, err := cl.Submit(ctx, service.PlanRequest{MNL: 0, Mapping: mapping})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 || se.Message == "" {
		t.Fatalf("err = %v", err)
	}
	// Unknown job id is a 404.
	if _, err := cl.Job(ctx, "job-404"); err == nil {
		t.Error("Job on unknown id succeeded")
	}
	// Wait gives up once its context expires.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	id, err := cl.Submit(ctx, service.PlanRequest{MNL: 4, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(cancelled, id); err == nil {
		t.Error("Wait with cancelled context succeeded")
	}
}
