package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmr2l/internal/client"
	"vmr2l/internal/coord"
	"vmr2l/internal/heuristics"
	"vmr2l/internal/service"
)

// The fleet gate measures the multi-node failover story end to end. The
// scripted chaos scenario: three vmr2l-server replicas behind a
// coordinator carry live sessions; after the coordinator snapshots them, job
// submitters and per-minute churn run concurrently against every session
// while one replica is killed abruptly (listener and all connections torn
// down mid-advance). The coordinator's next heartbeat rounds declare it Down
// and re-home its sessions onto the survivors from the last snapshots.
//
// Every gate is an absolute pin:
//
//   - exact accounting: rehomed == restored + restore_failed, with zero
//     restore failures, zero lost sessions, and no re-homing left pending;
//   - bit-identical recovery: each re-homed session's snapshot on its new
//     replica byte-equals both the pre-kill snapshot and the snapshot of a
//     failure-free twin (same id/seed/scenario on an untouched control
//     server, advanced to the same snapshot minute);
//   - no silent job loss: every job submitted during the chaos window is
//     accounted completed or failed — and some completed;
//   - the fleet stays serviceable: the hash ring is consistent and re-homed
//     sessions take advances and jobs after the failover.

// Fleet-run shape: enough sessions that the killed replica owns several,
// short enough for Tier-1.
const (
	fleetReplicas    = 3
	fleetSessions    = 6
	fleetSnapMinutes = 12
	fleetSeedBase    = 100
	fleetScenario    = "diurnal"
)

// FleetSessionResult is one session's failover outcome. Snapshot/twin
// comparisons are only performed for moved sessions (survivor-owned sessions
// keep advancing through the chaos window, so their state legitimately
// drifts past the snapshot).
type FleetSessionResult struct {
	ID      string
	Replica string
	// Moved marks sessions that lived on the killed replica.
	Moved      bool
	NewReplica string
	// SnapshotMatch: the re-homed session's snapshot byte-equals the
	// pre-kill snapshot. TwinMatch: it also byte-equals the failure-free
	// twin's snapshot at the same minute.
	SnapshotMatch bool
	TwinMatch     bool
	// Minute is the session clock after failover: moved sessions are back
	// at the snapshot minute, survivors are past it.
	Minute int
}

// FleetReport is the report of one fleet chaos run.
type FleetReport struct {
	SnapshotMinute int
	KilledReplica  string
	Moved          int

	PerSession []FleetSessionResult

	// Failover accounting from the coordinator (coord.FleetStats).
	Rehomed       uint64
	Restored      uint64
	RestoreFailed uint64
	LostSessions  int
	RehomingLeft  int
	RingOK        bool
	// AccountingOK pins rehomed == restored + restore_failed.
	AccountingOK bool

	// Job accounting over the chaos window (submissions racing the kill).
	JobsSubmitted   int64
	JobsCompleted   int64
	JobsFailed      int64
	JobAccountingOK bool

	// PostFailoverOK: every re-homed session took an advance and a full
	// job round-trip on its new replica.
	PostFailoverOK bool
}

// fleetNode is one in-process vmr2l-server replica on a real loopback
// listener, so the kill is a genuine TCP-level death, not a mock.
type fleetNode struct {
	name string
	svc  *service.Server
	srv  *http.Server
	url  string
}

func startFleetNode(name string) (*fleetNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bench: fleet: listen: %w", err)
	}
	svc := service.New(service.WithWorkers(2))
	svc.Register("ha", heuristics.HA{})
	srv := &http.Server{Handler: svc}
	go srv.Serve(ln)
	return &fleetNode{name: name, svc: svc, srv: srv, url: "http://" + ln.Addr().String()}, nil
}

// kill tears the replica down abruptly: listener closed, every open
// connection severed, in-flight requests dropped on the floor.
func (n *fleetNode) kill() { n.srv.Close() }

func (n *fleetNode) stop() {
	n.srv.Close()
	n.svc.Close()
}

// fetchSnapshot GETs a session's raw snapshot blob.
func fetchSnapshot(hc *http.Client, baseURL, id string) ([]byte, error) {
	resp, err := hc.Get(baseURL + "/v2/clusters/" + id + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("snapshot %s: status %d", id, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<28))
}

// runFleet runs the node-level chaos scenario and returns its report.
func runFleet() (FleetReport, error) {
	rep := FleetReport{SnapshotMinute: fleetSnapMinutes}
	nodes := make([]*fleetNode, 0, fleetReplicas)
	urls := map[string]string{}
	for i := 0; i < fleetReplicas; i++ {
		n, err := startFleetNode(fmt.Sprintf("r%d", i+1))
		if err != nil {
			return rep, err
		}
		defer n.stop()
		nodes = append(nodes, n)
		urls[n.name] = n.url
	}
	control, err := startFleetNode("control")
	if err != nil {
		return rep, err
	}
	defer control.stop()

	co := coord.New(urls, coord.Config{
		// Heartbeats and background snapshots are driven explicitly
		// (CheckNow / SnapshotAll) so the failover point is scripted, not
		// timer-raced.
		Heartbeat:     -1,
		SnapshotEvery: -1,
		SuspectAfter:  1,
		DownAfter:     2,
		Client:        &http.Client{Timeout: 5 * time.Second},
	})
	defer co.Close()
	coLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, fmt.Errorf("bench: fleet: coordinator listen: %w", err)
	}
	coSrv := &http.Server{Handler: co}
	go coSrv.Serve(coLn)
	defer coSrv.Close()
	coURL := "http://" + coLn.Addr().String()

	cl := client.New(coURL, client.WithRetry(2, 50*time.Millisecond, 250*time.Millisecond),
		client.WithPollInterval(5*time.Millisecond))
	ctl := client.New(control.url, client.WithPollInterval(5*time.Millisecond))
	hc := &http.Client{Timeout: 5 * time.Second}
	ctx := context.Background()

	// Sessions through the coordinator, failure-free twins on the control
	// server: same explicit id, scenario, and seed, so their event streams
	// are bit-identical up to the snapshot minute.
	ids := make([]string, fleetSessions)
	sessions := make([]*client.Session, fleetSessions)
	twins := make([]*client.Session, fleetSessions)
	for i := range ids {
		req := service.SessionRequest{
			ID:       fmt.Sprintf("fleet-s%d", i),
			Scenario: fleetScenario,
			Seed:     int64(fleetSeedBase + i),
		}
		ids[i] = req.ID
		if sessions[i], _, err = cl.CreateSession(ctx, req); err != nil {
			return rep, fmt.Errorf("bench: fleet: create %s: %w", req.ID, err)
		}
		if twins[i], _, err = ctl.CreateSession(ctx, req); err != nil {
			return rep, fmt.Errorf("bench: fleet: create twin %s: %w", req.ID, err)
		}
	}
	for i := range ids {
		if _, err := sessions[i].Advance(ctx, fleetSnapMinutes); err != nil {
			return rep, fmt.Errorf("bench: fleet: advance %s: %w", ids[i], err)
		}
		if _, err := twins[i].Advance(ctx, fleetSnapMinutes); err != nil {
			return rep, fmt.Errorf("bench: fleet: advance twin %s: %w", ids[i], err)
		}
	}

	co.SnapshotAll()
	expected := map[string][]byte{}
	twinBlob := map[string][]byte{}
	owners := map[string]string{}
	for _, id := range ids {
		if expected[id], err = fetchSnapshot(hc, coURL, id); err != nil {
			return rep, fmt.Errorf("bench: fleet: %w", err)
		}
		if twinBlob[id], err = fetchSnapshot(hc, control.url, id); err != nil {
			return rep, fmt.Errorf("bench: fleet: twin %w", err)
		}
		name, ok := co.Owner(id)
		if !ok {
			return rep, fmt.Errorf("bench: fleet: session %s has no owner", id)
		}
		owners[id] = name
	}

	// Chaos window: per-session submitters run jobs and per-minute churn
	// against the coordinator while the victim replica dies under them.
	var submitted, completed, failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(sess *client.Session) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				jctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				submitted.Add(1)
				jobID, err := sess.Submit(jctx, service.PlanRequest{MNL: 4, Solver: "ha"})
				if err == nil {
					_, err = cl.Wait(jctx, jobID)
				}
				if err != nil {
					failed.Add(1)
				} else {
					completed.Add(1)
				}
				cancel()
				// Post-snapshot churn: rolled back on failover by design.
				actx, acancel := context.WithTimeout(context.Background(), 3*time.Second)
				_, _ = sess.Advance(actx, 1)
				acancel()
			}
		}(sessions[i])
	}
	time.Sleep(250 * time.Millisecond)
	victim := owners[ids[0]]
	rep.KilledReplica = victim
	for _, n := range nodes {
		if n.name == victim {
			n.kill()
		}
	}
	// Let submissions race the dead replica before the failover round.
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	rep.JobsSubmitted = submitted.Load()
	rep.JobsCompleted = completed.Load()
	rep.JobsFailed = failed.Load()
	rep.JobAccountingOK = rep.JobsSubmitted == rep.JobsCompleted+rep.JobsFailed

	// Failover: two heartbeat rounds declare the victim Down and re-home.
	co.CheckNow()
	co.CheckNow()

	fs := co.Fleet()
	rep.Rehomed = fs.Stats.Rehomed
	rep.Restored = fs.Stats.Restored
	rep.RestoreFailed = fs.Stats.RestoreFailed
	rep.LostSessions = fs.Lost
	rep.RehomingLeft = fs.Rehoming
	rep.RingOK = fs.RingOK
	rep.AccountingOK = fs.Stats.Rehomed == fs.Stats.Restored+fs.Stats.RestoreFailed

	// Re-homed state must be bit-identical to the snapshots and the twins.
	rep.PostFailoverOK = true
	for i, id := range ids {
		res := FleetSessionResult{ID: id, Replica: owners[id], Moved: owners[id] == victim}
		if newOwner, ok := co.Owner(id); ok && newOwner != owners[id] {
			res.NewReplica = newOwner
		}
		if st, err := sessions[i].Status(ctx); err == nil {
			res.Minute = st.Minute
		}
		if res.Moved {
			rep.Moved++
			blob, err := fetchSnapshot(hc, coURL, id)
			if err == nil {
				res.SnapshotMatch = bytes.Equal(blob, expected[id])
				res.TwinMatch = bytes.Equal(blob, twinBlob[id])
			}
			// The re-homed session must be live: advance and a full job
			// round-trip on the new replica.
			if _, err := sessions[i].Advance(ctx, 3); err != nil {
				rep.PostFailoverOK = false
			} else if _, err := sessions[i].Reschedule(ctx, service.PlanRequest{MNL: 4, Solver: "ha"}); err != nil {
				rep.PostFailoverOK = false
			}
		}
		rep.PerSession = append(rep.PerSession, res)
	}
	return rep, nil
}

// FleetRegressions applies the fleet gate to a fresh report — every bar is
// an absolute pin (see the package comment at the top of this file).
func FleetRegressions(rep FleetReport) []string {
	var regs []string
	if rep.Moved == 0 {
		regs = append(regs, "fleet: replica kill moved no sessions (chaos proved nothing)")
	}
	if !rep.AccountingOK {
		regs = append(regs, fmt.Sprintf("fleet: accounting identity violated: rehomed %d != restored %d + restore_failed %d",
			rep.Rehomed, rep.Restored, rep.RestoreFailed))
	}
	if rep.RestoreFailed != 0 {
		regs = append(regs, fmt.Sprintf("fleet: %d session(s) failed to restore", rep.RestoreFailed))
	}
	if rep.LostSessions != 0 {
		regs = append(regs, fmt.Sprintf("fleet: %d session(s) lost", rep.LostSessions))
	}
	if rep.RehomingLeft != 0 {
		regs = append(regs, fmt.Sprintf("fleet: %d session(s) still re-homing after failover", rep.RehomingLeft))
	}
	if !rep.RingOK {
		regs = append(regs, "fleet: hash ring inconsistent after failover")
	}
	for _, s := range rep.PerSession {
		if !s.Moved {
			continue
		}
		if !s.SnapshotMatch {
			regs = append(regs, fmt.Sprintf("fleet: %s: re-homed state does not byte-match the pre-kill snapshot", s.ID))
		}
		if !s.TwinMatch {
			regs = append(regs, fmt.Sprintf("fleet: %s: re-homed state does not byte-match the failure-free twin", s.ID))
		}
		if s.NewReplica == "" || s.NewReplica == rep.KilledReplica {
			regs = append(regs, fmt.Sprintf("fleet: %s: not re-assigned off the killed replica (owner %q)", s.ID, s.NewReplica))
		}
	}
	if rep.JobsSubmitted == 0 {
		regs = append(regs, "fleet: no jobs ran during the chaos window")
	}
	if !rep.JobAccountingOK {
		regs = append(regs, fmt.Sprintf("fleet: job accounting violated: %d submitted != %d completed + %d failed",
			rep.JobsSubmitted, rep.JobsCompleted, rep.JobsFailed))
	}
	if rep.JobsCompleted == 0 {
		regs = append(regs, "fleet: no job completed during the chaos window")
	}
	if !rep.PostFailoverOK {
		regs = append(regs, "fleet: a re-homed session rejected work after failover")
	}
	return regs
}

// TestRunFleet runs the full replica-kill chaos scenario and requires it to
// clear every pinned gate.
func TestRunFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos run takes seconds; skipped in -short")
	}
	rep, err := runFleet()
	if err != nil {
		t.Fatal(err)
	}
	if regs := FleetRegressions(rep); len(regs) != 0 {
		t.Errorf("pinned fleet gates failed: %v", regs)
	}
	if rep.Moved == 0 || int(rep.Rehomed) != rep.Moved {
		t.Errorf("rehomed %d, moved %d: the kill must move every victim session exactly once", rep.Rehomed, rep.Moved)
	}
	for _, s := range rep.PerSession {
		// The minute is recorded before the post-failover liveness advance:
		// a restored session is back exactly at the snapshot clock, with the
		// post-snapshot churn rolled away.
		if s.Moved && s.Minute != rep.SnapshotMinute {
			t.Errorf("%s: restored clock %d, want snapshot minute %d", s.ID, s.Minute, rep.SnapshotMinute)
		}
	}
}

// TestFleetRegressionsGates pins each gate's trigger on synthetic reports.
func TestFleetRegressionsGates(t *testing.T) {
	good := FleetReport{
		KilledReplica: "r1", Moved: 2,
		PerSession: []FleetSessionResult{
			{ID: "s0", Replica: "r1", Moved: true, NewReplica: "r2", SnapshotMatch: true, TwinMatch: true},
			{ID: "s1", Replica: "r1", Moved: true, NewReplica: "r3", SnapshotMatch: true, TwinMatch: true},
			{ID: "s2", Replica: "r2"},
		},
		Rehomed: 2, Restored: 2,
		RingOK: true, AccountingOK: true,
		JobsSubmitted: 10, JobsCompleted: 9, JobsFailed: 1, JobAccountingOK: true,
		PostFailoverOK: true,
	}
	if regs := FleetRegressions(good); len(regs) != 0 {
		t.Fatalf("clean report flagged: %v", regs)
	}
	bad := FleetReport{
		KilledReplica: "r1", Moved: 0, // kill moved nothing
		PerSession: []FleetSessionResult{
			// Not re-assigned, blob mismatches.
			{ID: "s0", Replica: "r1", Moved: true, NewReplica: "r1"},
		},
		Rehomed: 3, Restored: 1, RestoreFailed: 1, // identity broken AND a failure
		LostSessions: 1, RehomingLeft: 1,
		RingOK: false, AccountingOK: false,
		JobsSubmitted: 10, JobsCompleted: 7, JobsFailed: 2, JobAccountingOK: false,
		PostFailoverOK: false,
	}
	regs := FleetRegressions(bad)
	for _, want := range []string{
		"moved no sessions", "accounting identity", "failed to restore",
		"session(s) lost", "still re-homing", "ring inconsistent",
		"pre-kill snapshot", "failure-free twin", "not re-assigned",
		"job accounting", "rejected work",
	} {
		found := false
		for _, r := range regs {
			if strings.Contains(r, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("gate %q did not fire: %v", want, regs)
		}
	}
	empty := FleetReport{Moved: 1, Rehomed: 1, Restored: 1, RingOK: true, AccountingOK: true, PostFailoverOK: true}
	regs = FleetRegressions(empty)
	fired := false
	for _, r := range regs {
		if strings.Contains(r, "no jobs ran") {
			fired = true
		}
	}
	if !fired {
		t.Errorf("zero-job gate did not fire: %v", regs)
	}
}
