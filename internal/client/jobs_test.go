package client

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vmr2l/internal/heuristics"
	"vmr2l/internal/service"
	"vmr2l/internal/trace"
)

// scaleOutSetup serves a mid-sized anti-affinity mapping so sharded jobs
// have something to partition.
func scaleOutSetup(t *testing.T) (*Client, []byte) {
	t.Helper()
	s := service.New(service.WithWorkers(2))
	t.Cleanup(s.Close)
	s.Register("ha", heuristics.HA{})
	s.Register("vbpp", heuristics.VBPP{Alpha: 4})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	rng := rand.New(rand.NewSource(2))
	c := trace.MustProfile("workload-mid-small").GenerateFragmented(rng, 0.10, 12)
	trace.AttachAffinity(c, 4, rng)
	var buf bytes.Buffer
	if err := trace.WriteMapping(&buf, c); err != nil {
		t.Fatal(err)
	}
	return New(srv.URL, WithPollInterval(2*time.Millisecond)), buf.Bytes()
}

func TestClientJobsList(t *testing.T) {
	cl, mapping := scaleOutSetup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	id1, err := cl.Submit(ctx, service.PlanRequest{MNL: 4, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := cl.Submit(ctx, service.PlanRequest{MNL: 4, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, id1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, id2); err != nil {
		t.Fatal(err)
	}
	type jobList struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	var all jobList
	if err := cl.do(ctx, http.MethodGet, "/v2/jobs", nil, &all); err != nil {
		t.Fatal(err)
	}
	jobs := all.Jobs
	if len(jobs) != 2 || jobs[0].ID != id1 || jobs[1].ID != id2 {
		t.Fatalf("jobs = %+v, want [%s %s]", jobs, id1, id2)
	}
	var done jobList
	if err := cl.do(ctx, http.MethodGet, "/v2/jobs?status="+string(service.JobSucceeded), nil, &done); err != nil {
		t.Fatal(err)
	}
	if len(done.Jobs) != 2 {
		t.Fatalf("succeeded filter matched %d jobs, want 2", len(done.Jobs))
	}
	if err := cl.do(ctx, http.MethodGet, "/v2/jobs?status=bogus", nil, &done); err == nil {
		t.Fatal("bogus status filter must error")
	}
}

func TestClientScaleOutJob(t *testing.T) {
	cl, mapping := scaleOutSetup(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	id, err := cl.Submit(ctx, service.PlanRequest{
		MNL: 12, Mapping: mapping, Shards: 4, Portfolio: []string{"ha", "vbpp"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	resp := st.Result
	if resp.Sharding == nil {
		t.Fatal("scale-out job returned no sharding report through the client")
	}
	if got := len(resp.Sharding.PerShard); got != resp.Sharding.Shards || got < 1 {
		t.Fatalf("per-shard stats: %d entries, shards %d", got, resp.Sharding.Shards)
	}
	if resp.Steps != resp.Sharding.Repair.Valid+resp.Sharding.Repair.Repaired {
		t.Fatalf("steps %d inconsistent with repair counts %+v", resp.Steps, resp.Sharding.Repair)
	}
	if resp.FinalFR > resp.InitialFR {
		t.Errorf("scale-out plan worsened FR: %v -> %v", resp.InitialFR, resp.FinalFR)
	}
}
