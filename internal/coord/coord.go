// Package coord is the fleet coordinator of the multi-node serving tier: it
// spreads cluster sessions across vmr2l-server replicas with consistent
// hashing, health-checks the replicas (heartbeat probes with an
// Up/Suspect/Down lifecycle mirroring the cluster-level PM health states),
// proxies the v2 session API, keeps a durable snapshot of every session
// (eager at creation, then re-snapshotted whenever the session's revision
// moves), and — when a replica dies — re-homes its sessions onto survivors
// by restoring the last snapshot.
//
// The accounting is exact by construction: every session on a dead replica
// is counted re-homed, and each re-homed session increments exactly one of
// restored or restore-failed, so rehomed == restored + restore_failed
// always holds and nothing is lost silently. While a session is mid-re-home
// the coordinator answers 503 with a Retry-After hint; a job result that
// died with its replica answers 410 Gone, not a timeout.
package coord

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaState is the coordinator's availability verdict on one replica.
// The lifecycle mirrors cluster.Health: Up replicas take traffic, Suspect
// replicas (missed heartbeats, not yet declared dead) still hold their
// sessions but a grace period is running, Down replicas trigger re-homing.
type ReplicaState string

// Replica lifecycle states.
const (
	ReplicaUp      ReplicaState = "up"
	ReplicaSuspect ReplicaState = "suspect"
	ReplicaDown    ReplicaState = "down"
)

// replica is the coordinator's view of one vmr2l-server.
type replica struct {
	name string
	url  string

	mu       sync.Mutex
	state    ReplicaState
	misses   int
	lastSeen time.Time
	// rehomed flags that this replica's death has already been processed;
	// reset when the replica comes back Up (it returns empty and re-enters
	// the ring).
	rehomed bool
}

func (rep *replica) snapshot() (ReplicaState, int, time.Time) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return rep.state, rep.misses, rep.lastSeen
}

// Config tunes a Coordinator. The zero value of any field picks the
// default.
type Config struct {
	// Heartbeat is the probe interval (default 1s). 0 keeps the default;
	// negative disables the background loop entirely (tests drive CheckNow).
	Heartbeat time.Duration
	// SuspectAfter and DownAfter are consecutive probe-miss thresholds for
	// the Suspect and Down transitions (defaults 1 and 3; Down triggers
	// re-homing).
	SuspectAfter int
	DownAfter    int
	// SnapshotEvery is the dirty-session snapshot interval (default 5s;
	// negative disables the loop — tests and the chaos bench call
	// SnapshotAll directly).
	SnapshotEvery time.Duration
	// Vnodes is the consistent-hash points per replica (default 64).
	Vnodes int
	// RedirectReads makes session status GETs answer 307 to the owning
	// replica instead of proxying, letting redirect-capable clients read
	// directly and keep the coordinator off the read path.
	RedirectReads bool
	// Client is the HTTP client used for probes and proxying (default: a
	// client with a 10s timeout).
	Client *http.Client
}

// Coordinator implements the fleet control plane. Create with New, register
// it as an http.Handler, and Close it on shutdown.
type Coordinator struct {
	cfg  Config
	mux  *http.ServeMux
	ring *ring

	mu       sync.RWMutex
	replicas map[string]*replica
	// assign maps session id -> owning replica name (sticky: reshuffles
	// only when the owner dies).
	assign map[string]string
	// snaps / snapRevs hold the last snapshot blob and its session revision.
	snaps    map[string][]byte
	snapRevs map[string]uint64
	// rehoming marks sessions whose re-home is in flight (503 until done).
	rehoming map[string]bool
	// lost records sessions that could not be restored anywhere (410).
	lost    map[string]string // session id -> reason
	sessSeq uint64

	// Fleet accounting. rehomed == restored + restoreFailed by construction.
	statRehomed       atomic.Uint64
	statRestored      atomic.Uint64
	statRestoreFailed atomic.Uint64
	statLostJobs      atomic.Uint64 // 410s answered for job results that died with a replica
	statSnapshots     atomic.Uint64 // snapshots captured from replicas
	statProxied       atomic.Uint64 // requests proxied to replicas
	statUnavailable   atomic.Uint64 // 503s answered (re-homing or replica unreachable)

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a coordinator over the given replicas (name -> base URL, e.g.
// {"r1": "http://10.0.0.1:8080"}) and starts its heartbeat and snapshot
// loops (unless disabled in cfg).
func New(replicas map[string]string, cfg Config) *Coordinator {
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 1
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 3
	}
	if cfg.DownAfter < cfg.SuspectAfter {
		cfg.DownAfter = cfg.SuspectAfter
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = 64
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Second
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 5 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	co := &Coordinator{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		replicas: map[string]*replica{},
		assign:   map[string]string{},
		snaps:    map[string][]byte{},
		snapRevs: map[string]uint64{},
		rehoming: map[string]bool{},
		lost:     map[string]string{},
		stop:     make(chan struct{}),
	}
	names := make([]string, 0, len(replicas))
	for name, url := range replicas {
		co.replicas[name] = &replica{name: name, url: url, state: ReplicaUp, lastSeen: time.Now()}
		names = append(names, name)
	}
	co.ring = newRing(names, cfg.Vnodes)
	co.routes()
	if cfg.Heartbeat > 0 {
		co.wg.Add(1)
		go co.loop(cfg.Heartbeat, co.CheckNow)
	}
	if cfg.SnapshotEvery > 0 {
		co.wg.Add(1)
		go co.loop(cfg.SnapshotEvery, func() { co.SnapshotAll() })
	}
	return co
}

// Close stops the background loops. In-flight proxied requests finish.
func (co *Coordinator) Close() {
	co.stopOnce.Do(func() { close(co.stop) })
	co.wg.Wait()
}

func (co *Coordinator) loop(every time.Duration, fn func()) {
	defer co.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-co.stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// alive reports whether a replica currently takes traffic (Up or Suspect —
// a Suspect replica still holds its sessions; only Down triggers re-homing).
func (co *Coordinator) alive(name string) bool {
	rep, ok := co.replicas[name]
	if !ok {
		return false
	}
	st, _, _ := rep.snapshot()
	return st != ReplicaDown
}

// up reports whether a replica is fully healthy (new sessions only land on
// Up replicas).
func (co *Coordinator) up(name string) bool {
	rep, ok := co.replicas[name]
	if !ok {
		return false
	}
	st, _, _ := rep.snapshot()
	return st == ReplicaUp
}

// Owner reports which replica currently holds the session (false when the
// session is unknown or lost). The fleet bench uses it to pick its kill
// target; it is advisory — the assignment can move on the next failover.
func (co *Coordinator) Owner(id string) (string, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	name, ok := co.assign[id]
	return name, ok
}

// CheckNow runs one synchronous heartbeat round: every replica is probed,
// states advance through the Up/Suspect/Down lifecycle, and any replica
// newly declared Down has its sessions re-homed before CheckNow returns.
// The background loop calls this on the heartbeat interval; tests and the
// chaos bench call it directly for deterministic failover.
func (co *Coordinator) CheckNow() {
	co.mu.RLock()
	reps := make([]*replica, 0, len(co.replicas))
	for _, rep := range co.replicas {
		reps = append(reps, rep)
	}
	co.mu.RUnlock()
	var dead []*replica
	for _, rep := range reps {
		if co.probe(rep) {
			continue
		}
		rep.mu.Lock()
		newlyDown := rep.state == ReplicaDown && !rep.rehomed
		if newlyDown {
			rep.rehomed = true
		}
		rep.mu.Unlock()
		if newlyDown {
			dead = append(dead, rep)
		}
	}
	for _, rep := range dead {
		co.rehomeReplica(rep)
	}
}

// probe performs one health check and advances the replica's state machine.
// Returns true when the replica answered.
func (co *Coordinator) probe(rep *replica) bool {
	ok := false
	resp, err := co.cfg.Client.Get(rep.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		ok = resp.StatusCode == http.StatusOK
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if ok {
		if rep.state == ReplicaDown {
			// A replica that comes back after death re-enters empty (its
			// sessions were re-homed); it is immediately eligible for new
			// sessions again.
			rep.rehomed = false
		}
		rep.state, rep.misses, rep.lastSeen = ReplicaUp, 0, time.Now()
		return true
	}
	rep.misses++
	switch {
	case rep.misses >= co.cfg.DownAfter:
		rep.state = ReplicaDown
	case rep.misses >= co.cfg.SuspectAfter:
		if rep.state != ReplicaDown {
			rep.state = ReplicaSuspect
		}
	}
	return false
}

// recordFailure feeds a proxy-time transport error into the health state
// machine, so traffic failures and heartbeat misses age a replica the same
// way.
func (co *Coordinator) recordFailure(rep *replica) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.misses++
	switch {
	case rep.misses >= co.cfg.DownAfter:
		rep.state = ReplicaDown
	case rep.misses >= co.cfg.SuspectAfter:
		if rep.state != ReplicaDown {
			rep.state = ReplicaSuspect
		}
	}
}

// rehomeReplica moves every session owned by a dead replica onto a
// surviving one, restoring from the last snapshot. Every session is counted
// re-homed, and exactly one of restored / restore-failed, before its
// 503-answering rehoming flag clears — no silent loss.
func (co *Coordinator) rehomeReplica(dead *replica) {
	co.mu.Lock()
	var sessions []string
	for id, owner := range co.assign {
		if owner == dead.name {
			sessions = append(sessions, id)
			co.rehoming[id] = true
		}
	}
	co.mu.Unlock()
	for _, id := range sessions {
		co.statRehomed.Add(1)
		co.rehomeSession(id)
		co.mu.Lock()
		delete(co.rehoming, id)
		co.mu.Unlock()
	}
}

// rehomeSession restores one session from its last snapshot onto the ring's
// surviving owner. On any failure the session is marked lost (410 from then
// on) and counted restore-failed.
func (co *Coordinator) rehomeSession(id string) {
	co.mu.RLock()
	blob := co.snaps[id]
	co.mu.RUnlock()
	fail := func(reason string) {
		co.statRestoreFailed.Add(1)
		co.mu.Lock()
		delete(co.assign, id)
		co.lost[id] = reason
		co.mu.Unlock()
	}
	if blob == nil {
		fail("no snapshot existed when its replica died")
		return
	}
	co.mu.RLock()
	target := co.ring.owner(id, co.up)
	co.mu.RUnlock()
	if target == "" {
		fail("no surviving replica to restore onto")
		return
	}
	rep := co.replicas[target]
	code, _, err := co.roundTrip(rep, http.MethodPut, "/v2/clusters/"+id+"/snapshot", "application/octet-stream", blob)
	if err != nil || (code != http.StatusOK && code != http.StatusCreated) {
		fail(fmt.Sprintf("restore onto %s failed (code %d, err %v)", target, code, err))
		return
	}
	co.statRestored.Add(1)
	co.mu.Lock()
	co.assign[id] = target
	co.mu.Unlock()
}

// SnapshotAll captures a fresh snapshot of every dirty session (revision
// moved since the last capture) and returns how many it took. The periodic
// loop calls it on SnapshotEvery; a chaos bench calls it between advance
// ticks to bound how much replay a failover can lose.
func (co *Coordinator) SnapshotAll() int {
	co.mu.RLock()
	type target struct {
		id    string
		owner string
	}
	targets := make([]target, 0, len(co.assign))
	for id, owner := range co.assign {
		if !co.rehoming[id] {
			targets = append(targets, target{id, owner})
		}
	}
	co.mu.RUnlock()
	taken := 0
	for _, tg := range targets {
		if co.snapshotSession(tg.id, tg.owner) {
			taken++
		}
	}
	return taken
}

// snapshotSession captures one session's snapshot if its revision moved.
func (co *Coordinator) snapshotSession(id, owner string) bool {
	co.mu.RLock()
	rep, ok := co.replicas[owner]
	lastRev, seen := co.snapRevs[id], false
	if _, has := co.snaps[id]; has {
		seen = true
	}
	co.mu.RUnlock()
	if !ok || !co.up(owner) {
		return false
	}
	// Cheap dirtiness probe first: the status request is a few hundred bytes
	// against a possibly multi-megabyte snapshot.
	var st struct {
		Rev uint64 `json:"rev"`
	}
	code, body, err := co.roundTrip(rep, http.MethodGet, "/v2/clusters/"+id, "", nil)
	if err != nil || code != http.StatusOK {
		return false
	}
	if err := jsonUnmarshal(body, &st); err != nil {
		return false
	}
	if seen && st.Rev == lastRev {
		return false
	}
	code, blob, err := co.roundTrip(rep, http.MethodGet, "/v2/clusters/"+id+"/snapshot", "", nil)
	if err != nil || code != http.StatusOK {
		return false
	}
	co.statSnapshots.Add(1)
	co.mu.Lock()
	co.snaps[id] = blob
	co.snapRevs[id] = st.Rev
	co.mu.Unlock()
	return true
}
