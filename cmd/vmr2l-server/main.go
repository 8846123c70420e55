// Command vmr2l-server runs the rescheduling service: an HTTP API where
// clients submit a VM-PM mapping and receive a migration plan, the way the
// paper's central server answers VMR requests (section 1). API v2 is
// asynchronous-first — solves run on a bounded worker pool under the
// five-second latency budget, so every engine returns an anytime plan.
//
//	vmr2l-server -addr :8080 -workers 4 -queue 64 -timeout 5s -ckpt vmr2l.ckpt
//	vmr2l-server -pprof 6060       # expose net/http/pprof on 127.0.0.1:6060
//	vmr2l-server doctor -ckpt vmr2l.ckpt -addr :8080   # preflight, exit 1 on failure
//
// The doctor subcommand runs the serving preflight without starting the
// server: the checkpoint must be a readable VMR2LCK1 file (self-describing
// manifest) with every tensor shape matching the configured model
// (dtype and quantized layers are reported), the engine set must register,
// and the listen address must be bindable. With -coord it also probes the
// fleet coordinator (vmr2l-coord): reachable, at least one Up replica, hash
// ring consistent, and — with -self — this replica registered; in that mode
// -ckpt is optional.
//
//	vmr2l-server doctor -coord http://coord:8090 -self http://this-host:8080
//
//	curl -s localhost:8080/v2/solvers
//	curl -s -X POST localhost:8080/v2/jobs \
//	     -d '{"mnl":10,"solver":"vmr2l","mapping":{...}}'   # -> {"id":"job-1",...}
//	curl -s localhost:8080/v2/jobs/job-1
//	curl -s -X POST localhost:8080/v2/reschedule -d '{"mnl":10,"mapping":{...}}'
//
// Live cluster sessions (the deployment loop of paper Fig. 5):
//
//	curl -s localhost:8080/v2/scenarios
//	curl -s -X POST localhost:8080/v2/clusters -d '{"scenario":"diurnal","seed":7}'
//	curl -s -X POST localhost:8080/v2/clusters/sess-1/events -d '{"advance_minutes":30}'
//	curl -s -X POST localhost:8080/v2/clusters/sess-1/jobs -d '{"mnl":10}'
//	curl -s localhost:8080/v2/jobs/job-1   # plan repaired against the live session
//
// Registered engines: ha, swap-ha, vbpp, bnb, pop, mcts, the scale-out
// wrappers portfolio (ha+vbpp raced under one deadline) and sharded
// (-shards partitions, see internal/shard), and (with -ckpt) the trained
// VMR2L agent plus mcts-prior (UCT with batched critic value priors). A
// sharded job on the policy engine rolls all shards through one batched
// forward per wave. Any v2 job can also request scale-out ad hoc with the
// "shards"/"portfolio" body fields. The default engine is HA — always
// within the five-second budget. SIGINT/SIGTERM drain in-flight solves
// before exit.
//
// With -ckpt, every policy forward pass — vmr2l jobs, sharded rollouts,
// mcts-prior critic scoring — routes through one continuous-batching
// scheduler (internal/serve): concurrent requests coalesce into shared GEMM
// waves sized by -wave-rows / -wave-wait, and per-request results stay
// bit-identical to standalone inference. Scheduler counters are exported as
// vmr2l_serve_* on GET /metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmr2l/internal/coord"
	"vmr2l/internal/exact"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/mcts"
	"vmr2l/internal/nn"
	"vmr2l/internal/policy"
	"vmr2l/internal/serve"
	"vmr2l/internal/service"
	"vmr2l/internal/shard"
)

// newModel builds the serving model configuration; it must match training
// (vmr2l-train's -dmodel/-blocks/-extractor).
func newModel(dModel, blocks int, extractor string) *policy.Model {
	cfg := policy.Config{
		DModel: dModel, Hidden: 2 * dModel, Blocks: blocks,
		Action: policy.TwoStage,
	}
	switch extractor {
	case "sparse":
		cfg.Extractor = policy.SparseAttention
	case "vanilla":
		cfg.Extractor = policy.VanillaAttention
	case "mlp":
		cfg.Extractor = policy.NoAttention
	default:
		log.Fatalf("unknown extractor %q (sparse|vanilla|mlp)", extractor)
	}
	return policy.New(cfg)
}

// parseIncremental maps the -incremental flag to the scheduler mode.
func parseIncremental(s string) serve.IncrementalMode {
	switch s {
	case "auto":
		return serve.IncrementalAuto
	case "on":
		return serve.IncrementalOn
	case "off":
		return serve.IncrementalOff
	}
	log.Fatalf("unknown -incremental mode %q (auto|on|off)", s)
	return serve.IncrementalAuto
}

// registerEngines installs the solver set on s: the heuristic/exact/search
// engines, the scale-out wrappers, and — when sched is non-nil — the policy
// agent and value-prior MCTS riding the shared inference scheduler.
func registerEngines(s *service.Server, sched *serve.Scheduler, shards int) {
	s.Register("ha", heuristics.HA{})
	s.Register("swap-ha", heuristics.SwapHA{})
	s.Register("vbpp", heuristics.VBPP{})
	s.Register("bnb", &exact.Solver{Beam: 6, AllowLoss: true})
	s.Register("pop", exact.POP{Parts: 4, Inner: exact.Solver{Beam: 4, AllowLoss: true}})
	s.Register("mcts", &mcts.Solver{Iterations: 64, Width: 6})
	// Scale-out engines (internal/shard). Clients can also compose their own
	// per request via the "shards" and "portfolio" fields of any v2 job.
	scaleOut := []shard.Engine{{Name: "ha", S: heuristics.HA{}}, {Name: "vbpp", S: heuristics.VBPP{}}}
	s.Register("portfolio", shard.NewPortfolio(scaleOut...))
	s.Register("sharded", &shard.Solver{Engines: scaleOut, Opts: shard.Options{Shards: shards}})
	if sched != nil {
		// The policy engine and the value-prior MCTS both ride the shared
		// scheduler: concurrent jobs, sharded rollouts, and prior scoring
		// coalesce into common waves.
		s.Register("vmr2l", &serve.Agent{Sched: sched, Opts: policy.SampleOpts{Greedy: true}})
		s.Register("mcts-prior", &mcts.Solver{Iterations: 64, Width: 6, Prior: sched})
	}
}

// runDoctor is the serving preflight: checkpoint readable + shapes valid
// (dtype and quantized layers reported), engines registered, port bindable,
// and — with -coord — the fleet coordinator reachable, this replica
// registered, and the hash ring consistent. Any failure exits non-zero with
// the reason.
func runDoctor(args []string) {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	var (
		ckpt     = fs.String("ckpt", "", "checkpoint to preflight (required unless -coord)")
		addr     = fs.String("addr", ":8080", "listen address to probe")
		dModel   = fs.Int("dmodel", 32, "embedding width (must match training)")
		blocks   = fs.Int("blocks", 2, "attention blocks (must match training)")
		extr     = fs.String("extractor", "sparse", "feature extractor: sparse|vanilla|mlp (must match training)")
		shards   = fs.Int("shards", 8, "partition count of the pre-registered 'sharded' engine")
		coordURL = fs.String("coord", "", "fleet coordinator URL to probe (makes -ckpt optional)")
		self     = fs.String("self", "", "this replica's advertised URL; doctor verifies the coordinator lists it")
	)
	fs.Parse(args)
	if *ckpt == "" && *coordURL == "" {
		log.Fatal("doctor: -ckpt is required (or -coord for a fleet-only preflight)")
	}

	var m *policy.Model
	if *ckpt != "" {
		// 1. Checkpoint self-description: readable manifest.
		man, err := nn.InspectFile(*ckpt)
		if err != nil {
			log.Fatalf("doctor: checkpoint %s unreadable: %v", *ckpt, err)
		}
		byDType := map[string]int{}
		for _, t := range man.Tensors {
			byDType[t.DType]++
		}
		var dtypes []string
		for _, d := range []string{"f64", "f32", "i8"} {
			if byDType[d] > 0 {
				dtypes = append(dtypes, fmt.Sprintf("%d %s", byDType[d], d))
			}
		}
		fmt.Printf("doctor: checkpoint %s: format ckpt v%d, %d tensors (%s)\n",
			*ckpt, man.Version, len(man.Tensors), strings.Join(dtypes, ", "))

		// 2. Shape validation against the configured model; a mismatch names
		// the offending tensor.
		m = newModel(*dModel, *blocks, *extr)
		if err := m.Params.LoadFile(*ckpt); err != nil {
			log.Fatalf("doctor: checkpoint does not fit model (dmodel=%d, blocks=%d, extractor=%s): %v",
				*dModel, *blocks, *extr, err)
		}
		if qn := m.Params.QuantizedLinears(); len(qn) > 0 {
			fmt.Printf("doctor: model dmodel=%d blocks=%d: shapes valid; %d quantized linears, int8 serving path\n",
				*dModel, *blocks, len(qn))
		} else {
			fmt.Printf("doctor: model dmodel=%d blocks=%d: shapes valid; float64 serving path\n", *dModel, *blocks)
		}
	}

	// 3. Engine registration, through the same code path serving uses.
	var sched *serve.Scheduler
	if m != nil {
		sched = serve.NewScheduler(m, serve.Options{})
		defer sched.Close()
	}
	s := service.New(service.WithWorkers(1))
	defer s.Close()
	registerEngines(s, sched, *shards)
	fmt.Printf("doctor: engines: %s\n", strings.Join(s.Solvers(), ", "))

	// 4. Port bindable.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("doctor: cannot bind %s: %v", *addr, err)
	}
	ln.Close()
	fmt.Printf("doctor: addr %s bindable\n", *addr)

	// 5. Fleet preflight: coordinator reachable, healthy replicas present,
	// ring consistent, and (with -self) this replica registered.
	if *coordURL != "" {
		probeCoord(*coordURL, *self)
	}
	fmt.Println("doctor: ok")
}

// probeCoord runs the fleet half of the doctor preflight against a running
// coordinator.
func probeCoord(coordURL, self string) {
	coordURL = strings.TrimRight(coordURL, "/")
	hc := &http.Client{Timeout: 5 * time.Second}
	resp, err := hc.Get(coordURL + "/healthz")
	if err != nil {
		log.Fatalf("doctor: coordinator %s unreachable: %v", coordURL, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("doctor: coordinator %s /healthz returned %d", coordURL, resp.StatusCode)
	}
	resp, err = hc.Get(coordURL + "/v2/fleet")
	if err != nil {
		log.Fatalf("doctor: coordinator %s /v2/fleet: %v", coordURL, err)
	}
	defer resp.Body.Close()
	var fleet coord.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		log.Fatalf("doctor: coordinator %s /v2/fleet: decode: %v", coordURL, err)
	}
	up := 0
	for _, rep := range fleet.Replicas {
		if rep.State == coord.ReplicaUp {
			up++
		}
	}
	fmt.Printf("doctor: coordinator %s: %d replicas (%d up), %d sessions, rehomed %d = restored %d + restore_failed %d\n",
		coordURL, len(fleet.Replicas), up, fleet.Sessions,
		fleet.Stats.Rehomed, fleet.Stats.Restored, fleet.Stats.RestoreFailed)
	if up == 0 {
		log.Fatalf("doctor: coordinator %s has no Up replica", coordURL)
	}
	if !fleet.RingOK {
		log.Fatalf("doctor: coordinator %s hash ring inconsistent (a session's owner is unknown or down)", coordURL)
	}
	if fleet.Stats.Rehomed != fleet.Stats.Restored+fleet.Stats.RestoreFailed {
		log.Fatalf("doctor: coordinator %s accounting broken: rehomed %d != restored %d + restore_failed %d",
			coordURL, fleet.Stats.Rehomed, fleet.Stats.Restored, fleet.Stats.RestoreFailed)
	}
	if self != "" {
		want := strings.TrimRight(self, "/")
		found := false
		for _, rep := range fleet.Replicas {
			if strings.TrimRight(rep.URL, "/") == want {
				found = true
				fmt.Printf("doctor: this replica registered as %q, state %s\n", rep.Name, rep.State)
				if rep.State != coord.ReplicaUp {
					log.Fatalf("doctor: this replica (%s) is %s on the coordinator", want, rep.State)
				}
			}
		}
		if !found {
			log.Fatalf("doctor: this replica (%s) is not registered on coordinator %s", want, coordURL)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-server: ")
	if len(os.Args) > 1 && os.Args[1] == "doctor" {
		runDoctor(os.Args[2:])
		return
	}
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		ckpt     = flag.String("ckpt", "", "VMR2L checkpoint to serve (optional)")
		dModel   = flag.Int("dmodel", 32, "embedding width (must match training)")
		blocks   = flag.Int("blocks", 2, "attention blocks (must match training)")
		extr     = flag.String("extractor", "sparse", "feature extractor: sparse|vanilla|mlp (must match training)")
		incrMode = flag.String("incremental", "auto", "per-session incremental inference for rollout rows: auto|on|off (auto engages for -extractor mlp)")
		workers  = flag.Int("workers", 4, "async solve workers")
		queue    = flag.Int("queue", 64, "async job queue depth")
		timeout  = flag.Duration("timeout", 0, "per-solve budget (0 = paper's 5s limit)")
		shards   = flag.Int("shards", 8, "partition count of the pre-registered 'sharded' engine")
		pprofP   = flag.Int("pprof", 0, "expose net/http/pprof on 127.0.0.1:<port> (0 = disabled)")
		waveRows = flag.Int("wave-rows", 128, "inference scheduler: max rows per shared forward wave")
		waveWait = flag.Duration("wave-wait", 0, "inference scheduler: admission window to hold a wave open for stragglers (0 = fire immediately)")
	)
	flag.Parse()

	if *pprofP > 0 {
		// Opt-in profiling endpoint, bound to loopback only so serving hot
		// spots can be inspected in place without exposing pprof publicly.
		// net/http/pprof registers its handlers on the default mux, which is
		// served solely on this listener (the API below uses its own mux).
		pprofAddr := fmt.Sprintf("127.0.0.1:%d", *pprofP)
		go func() {
			log.Printf("pprof: %v", http.ListenAndServe(pprofAddr, nil))
		}()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pprofAddr)
	}

	svcOpts := []service.Option{
		service.WithWorkers(*workers),
		service.WithQueueDepth(*queue),
		service.WithTimeout(*timeout),
	}
	var sched *serve.Scheduler
	var m *policy.Model
	if *ckpt != "" {
		m = newModel(*dModel, *blocks, *extr)
		if err := m.Params.LoadFile(*ckpt); err != nil {
			log.Fatal(err)
		}
		// One shared continuous-batching scheduler serves every policy
		// forward; the service closes it after the worker pool drains.
		sched = serve.NewScheduler(m, serve.Options{
			MaxRows: *waveRows, MaxWait: *waveWait,
			Incremental: parseIncremental(*incrMode),
		})
		svcOpts = append(svcOpts, service.WithCloser(sched))
		// Inference-scheduler counters join GET /metrics alongside the
		// service's own, so one Prometheus scrape covers the whole replica.
		svcOpts = append(svcOpts, service.WithMetrics(func() map[string]float64 {
			st := sched.Stats()
			return map[string]float64{
				"vmr2l_serve_submitted_total":      float64(st.Submitted),
				"vmr2l_serve_waves_total":          float64(st.Waves),
				"vmr2l_serve_rows_total":           float64(st.Rows),
				"vmr2l_serve_dropped_cancel_total": float64(st.DroppedCancel),
				"vmr2l_serve_dropped_shed_total":   float64(st.DroppedShed),
				"vmr2l_serve_queue_depth":          float64(st.QueueDepth),
				"vmr2l_serve_max_wave":             float64(st.MaxWave),
				"vmr2l_serve_mean_wave":            st.MeanWave,
				"vmr2l_serve_incr_rows_total":      float64(st.IncrRows),
				"vmr2l_serve_incr_hits_total":      float64(st.IncrHits),
				"vmr2l_serve_incr_misses_total":    float64(st.IncrMisses),
				"vmr2l_serve_incr_fallbacks_total": float64(st.IncrFallbacks),
				"vmr2l_serve_incr_sessions":        float64(st.IncrSessions),
			}
		}))
	}
	s := service.New(svcOpts...)
	registerEngines(s, sched, *shards)
	if sched != nil {
		path := "float64"
		if m.Quantized() {
			path = "int8"
		}
		fmt.Printf("serving VMR2L checkpoint %s (%s path, wave-rows %d, wave-wait %s)\n", *ckpt, path, *waveRows, *waveWait)
	}

	srv := &http.Server{Addr: *addr, Handler: s}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("listening on %s (%d workers, queue %d)\n", *addr, *workers, *queue)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	s.Close() // drain the worker pool after the listener stops
}
