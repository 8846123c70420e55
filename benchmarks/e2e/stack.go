package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"vmr2l/internal/client"
	"vmr2l/internal/cluster"
	"vmr2l/internal/coord"
	"vmr2l/internal/policy"
	"vmr2l/internal/serve"
	"vmr2l/internal/service"
	"vmr2l/internal/trace"
)

// replicaCount is the fleet size of every workload: two replicas are the
// smallest fleet in which the coordinator's ring, job-id namespacing and
// per-session routing all do real work.
const replicaCount = 2

// pollInterval is the client's job-status poll cadence, fixed so that poll
// overshoot is the same on every run and every commit.
const pollInterval = 5 * time.Millisecond

// node is one in-process replica: the real service.Server behind a real
// loopback listener, with its own model copy and wave scheduler, wired the
// way cmd/vmr2l-server wires a checkpointed replica.
type node struct {
	name  string
	url   string
	model *policy.Model
	sched *serve.Scheduler
	svc   *service.Server
	srv   *http.Server
}

// stack is the whole serving path under test: client -> coordinator ->
// replicas, all on loopback listeners in this process.
type stack struct {
	nodes  []*node
	co     *coord.Coordinator
	coSrv  *http.Server
	coURL  string
	httpc  *http.Client // shared by every harness-side caller
	direct *http.Client // coordinator -> replica transport
}

// newModel builds the serving model of a workload. It is fresh-initialised
// from a fixed seed: the forward pass does the same arithmetic as a trained
// checkpoint of the same shape, and no artifact has to ship with the repo.
func newModel(w *workload) *policy.Model {
	m := policy.New(policy.Config{
		DModel: 32, Hidden: 64, Blocks: 2,
		Extractor: w.extractor, Action: policy.TwoStage, Seed: 1,
	})
	if w.int8 {
		m.Quantize()
	}
	return m
}

// input is one generated cluster: the harness's own copy, which the stack
// never sees, and its wire form (the trace JSON schema of a session upload).
type input struct {
	c    *cluster.Cluster
	json []byte
}

// genMapping generates one cluster of the workload's profile. The profile's
// usage jitter is pinned to zero (see makeInputs).
func genMapping(w *workload, mapSeed int64) *cluster.Cluster {
	p := trace.MustProfile(w.profile)
	p.UsageJitter = 0
	return p.GenerateMapping(rand.New(rand.NewSource(mapSeed)))
}

// vmTolerance is how far a mapping's VM count may be from the workload's
// nominal count, as a share of it.
const vmTolerance = 0.01

// makeInputs generates the run's mappings from the run seed: the first
// w.mappings of the seed's candidates whose VM count is the workload's nominal
// one. The run seed thus decides which VMs sit where, not how many there are
// — left alone (and with the profile's usage jitter) the count moves by +-7 %
// between seeds and the cost of attention by twice that, which would read as
// noise between runs. Generating inputs is the benchmark's work, not the
// system's, and is not part of set-up time.
func makeInputs(w *workload, seed int64) ([]input, error) {
	var ins []input
	for k := int64(0); k < 400 && len(ins) < w.mappings; k++ {
		c := genMapping(w, seed*1000+k)
		if d := float64(len(c.VMs) - w.vms); w.vms != 0 && (d < -vmTolerance*float64(w.vms) || d > vmTolerance*float64(w.vms)) {
			continue
		}
		var buf bytes.Buffer
		if err := trace.WriteMapping(&buf, c); err != nil {
			return nil, fmt.Errorf("encode mapping: %w", err)
		}
		ins = append(ins, input{c, bytes.TrimSpace(buf.Bytes())})
	}
	if len(ins) < w.mappings {
		return nil, fmt.Errorf("%s: seed %d has only %d mappings with %d VMs (+-%.0f %%) among 400 candidates", w.name, seed, len(ins), w.vms, 100*vmTolerance)
	}
	return ins, nil
}

func listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	return ln, nil
}

func startNode(name string, w *workload) (*node, error) {
	ln, err := listen()
	if err != nil {
		return nil, err
	}
	n := &node{name: name, url: "http://" + ln.Addr().String(), model: newModel(w)}
	n.sched = serve.NewScheduler(n.model, serve.Options{Incremental: w.incremental})
	n.svc = service.New(service.WithWorkers(2), service.WithCloser(n.sched))
	n.svc.Register("vmr2l", &serve.Agent{Sched: n.sched, Opts: greedy, Seed: 1})
	n.srv = &http.Server{Handler: n.svc}
	go func() { _ = n.srv.Serve(ln) }() // returns ErrServerClosed on stop
	return n, nil
}

func (n *node) stop() {
	_ = n.srv.Close() // listener and connections; nothing to flush
	n.svc.Close()     // drains workers, then closes the scheduler
}

// startStack brings up the replicas and the coordinator. Heartbeats and
// background snapshots are off so that no timer-driven work lands inside a
// measured job; workloads that snapshot call SnapshotAll themselves.
func startStack(w *workload) (*stack, error) {
	st := &stack{
		httpc:  &http.Client{Transport: newTransport(), Timeout: 30 * time.Second},
		direct: &http.Client{Transport: newTransport(), Timeout: 30 * time.Second},
	}
	urls := map[string]string{}
	for i := 0; i < replicaCount; i++ {
		n, err := startNode(fmt.Sprintf("r%d", i+1), w)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		urls[n.name] = n.url
	}
	st.co = coord.New(urls, coord.Config{Heartbeat: -1, SnapshotEvery: -1, Client: st.direct})
	ln, err := listen()
	if err != nil {
		st.stop()
		return nil, err
	}
	st.coSrv = &http.Server{Handler: st.co}
	go func() { _ = st.coSrv.Serve(ln) }()
	st.coURL = "http://" + ln.Addr().String()
	return st, nil
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16, IdleConnTimeout: time.Minute}
}

// stop tears the stack down: coordinator first (no new proxying), then the
// replicas, then the idle connections of both HTTP clients.
func (st *stack) stop() {
	if st.coSrv != nil {
		_ = st.coSrv.Close()
	}
	if st.co != nil {
		st.co.Close()
	}
	for _, n := range st.nodes {
		n.stop()
	}
	st.httpc.CloseIdleConnections()
	st.direct.CloseIdleConnections()
}

// newClient builds a coordinator-facing client. rt, when non-nil, replaces
// the transport (the traced run wraps it to record one span per HTTP call).
func (st *stack) newClient(rt http.RoundTripper) *client.Client {
	hc := st.httpc
	if rt != nil {
		hc = &http.Client{Transport: rt, Timeout: st.httpc.Timeout}
	}
	return client.New(st.coURL, client.WithHTTPClient(hc), client.WithPollInterval(pollInterval))
}

// nodeByName resolves a replica name from Coordinator.Owner.
func (st *stack) nodeByName(name string) *node {
	for _, n := range st.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// createSession registers a mapping session through the coordinator.
func createSession(ctx context.Context, cl *client.Client, id string, mapping []byte) (*client.Session, error) {
	sess, _, err := cl.CreateSession(ctx, service.SessionRequest{ID: id, Mapping: mapping, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("create session %s: %w", id, err)
	}
	return sess, nil
}
