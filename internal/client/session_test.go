package client

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"vmr2l/internal/service"
)

func TestClientSessionLifecycle(t *testing.T) {
	cl, mapping := testSetup(t)
	ctx := context.Background()

	sess, st, err := cl.CreateSession(ctx, service.SessionRequest{Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	if sess.ID() == "" || st.VMs == 0 {
		t.Fatalf("created %q status %+v", sess.ID(), st)
	}

	var got service.SessionStatus
	if err := cl.do(ctx, http.MethodGet, "/v2/clusters/"+sess.ID(), nil, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != sess.ID() || got.Minute != 0 {
		t.Fatalf("status = %+v", got)
	}

	vm := 0
	after, err := sess.Apply(ctx, service.EventsRequest{Events: []service.SessionEvent{
		{Arrive: true, Type: "xlarge"},
		{Arrive: false, VM: &vm},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Applied == nil || after.Applied.Events != 2 {
		t.Fatalf("applied = %+v", after.Applied)
	}

	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.do(ctx, http.MethodGet, "/v2/clusters/"+sess.ID(), nil, &got); err == nil {
		t.Fatal("closed session still reachable")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != 404 {
			t.Fatalf("err = %v, want 404 StatusError", err)
		}
	}
}

func TestClientSessionFromScenarioAndReschedule(t *testing.T) {
	cl, _ := testSetup(t)
	ctx := context.Background()

	var scs struct {
		Scenarios []service.ScenarioInfo `json:"scenarios"`
	}
	if err := cl.do(ctx, http.MethodGet, "/v2/scenarios", nil, &scs); err != nil {
		t.Fatal(err)
	}
	if len(scs.Scenarios) < 5 {
		t.Fatalf("scenarios = %+v", scs.Scenarios)
	}

	sess, _, err := cl.CreateSession(ctx, service.SessionRequest{Scenario: "diurnal", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	// Drift the session, then reschedule against it.
	st, err := sess.Advance(ctx, 30)
	if err != nil {
		t.Fatal(err)
	}
	if st.Minute != 30 {
		t.Fatalf("minute = %d, want 30", st.Minute)
	}
	id, err := sess.Submit(ctx, service.PlanRequest{MNL: 8})
	if err != nil {
		t.Fatal(err)
	}
	job, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	resp := job.Result
	if resp.Repair == nil {
		t.Fatal("session reschedule returned no repair report")
	}
	if got := resp.Repair.Valid + resp.Repair.Repaired; got != len(resp.Plan) {
		t.Fatalf("plan %d migrations, repair says %d apply (%+v)", len(resp.Plan), got, resp.Repair)
	}
}

func TestClientSessionSubmitRejectsMapping(t *testing.T) {
	cl, mapping := testSetup(t)
	ctx := context.Background()
	sess, _, err := cl.CreateSession(ctx, service.SessionRequest{Scenario: "static"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Submit(ctx, service.PlanRequest{MNL: 4, Mapping: mapping}); err == nil {
		t.Fatal("session submit with mapping accepted")
	}
}
