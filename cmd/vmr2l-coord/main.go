// Command vmr2l-coord runs the fleet coordinator of the multi-node serving
// tier (internal/coord): it spreads cluster sessions across vmr2l-server
// replicas with consistent hashing, health-checks the replicas through an
// Up/Suspect/Down lifecycle, keeps a durable snapshot of every session, and
// re-homes sessions from their last snapshot when a replica dies — with
// exact accounting (rehomed == restored + restore_failed) and honest 503 +
// Retry-After answers while a failover is in flight.
//
//	vmr2l-coord -addr :8090 \
//	    -replica r1=http://10.0.0.1:8080 \
//	    -replica r2=http://10.0.0.2:8080 \
//	    -replica r3=http://10.0.0.3:8080
//
// The coordinator re-exposes the v2 session API: POST /v2/clusters places a
// session on the ring, session-scoped requests are proxied to the owning
// replica, job ids come back namespaced "<replica>~job-N" so results stay
// addressable fleet-wide, GET /v2/fleet reports replica health and failover
// accounting, and GET /metrics serves the counters in Prometheus text
// format. With -redirect-reads, session status GETs answer 307 to the
// owning replica so clients read directly.
//
//	curl -s localhost:8090/v2/fleet
//	curl -s -X POST localhost:8090/v2/clusters -d '{"scenario":"diurnal","seed":7}'
//	curl -s -X POST localhost:8090/v2/clusters/fleet-1/events -d '{"advance_minutes":30}'
//	curl -s localhost:8090/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vmr2l/internal/coord"
	"vmr2l/internal/service"
)

// replicaFlags collects repeated -replica name=url flags.
type replicaFlags map[string]string

func (r replicaFlags) String() string {
	parts := make([]string, 0, len(r))
	for name, url := range r {
		parts = append(parts, name+"="+url)
	}
	return strings.Join(parts, ",")
}

func (r replicaFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	if _, dup := r[name]; dup {
		return fmt.Errorf("duplicate replica name %q", name)
	}
	r[name] = strings.TrimRight(url, "/")
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("vmr2l-coord: ")
	replicas := replicaFlags{}
	var (
		addr      = flag.String("addr", ":8090", "listen address")
		heartbeat = flag.Duration("heartbeat", time.Second, "replica probe interval")
		snapEvery = flag.Duration("snapshot-every", 5*time.Second, "dirty-session snapshot interval")
		suspect   = flag.Int("suspect-after", 1, "consecutive probe misses before a replica is Suspect")
		down      = flag.Int("down-after", 3, "consecutive probe misses before a replica is Down (triggers re-homing)")
		vnodes    = flag.Int("vnodes", 64, "consistent-hash points per replica")
		redirect  = flag.Bool("redirect-reads", false, "answer session status GETs with 307 to the owning replica")
	)
	flag.Var(replicas, "replica", "replica as name=url (repeat per replica)")
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("at least one -replica name=url is required")
	}

	co := coord.New(replicas, coord.Config{
		Heartbeat:     *heartbeat,
		SnapshotEvery: *snapEvery,
		SuspectAfter:  *suspect,
		DownAfter:     *down,
		Vnodes:        *vnodes,
		RedirectReads: *redirect,
	})

	srv := service.NewHTTPServer(*addr, co)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("coordinating %d replicas on %s (heartbeat %s, snapshots %s)\n",
		len(replicas), *addr, *heartbeat, *snapEvery)

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
	co.Close()
	_ = os.Stdout.Sync()
}
