package main

import (
	"fmt"
	"math/rand"

	"vmr2l/internal/policy"
	"vmr2l/internal/serve"
	"vmr2l/internal/service"
)

// jobKind is what one client-observed operation consists of.
type jobKind int

const (
	// jobStatic: submit a job on a long-lived, unchanging session and wait
	// for the repaired plan.
	jobStatic jobKind = iota
	// jobChurn: submit, post a batch of churn events while the solve runs,
	// then wait — the plan is repaired against a cluster that moved.
	jobChurn
	// jobUpload: create a session by uploading the mapping, run one sharded
	// job on it, delete the session.
	jobUpload
)

// nominalSeconds is the --seconds value the job counts below are sized for
// (BENCHMARK.json's run_seconds). Another value scales the counts linearly.
const nominalSeconds = 20

// passes is the number of equal parts the measured phase is split into;
// rate metrics are the median of the per-pass values.
const passes = 3

// eventsPerJob is the number of explicit arrive/exit events a churn job
// posts, next to a one-minute scenario advance.
const eventsPerJob = 40

// workload is one named input of the benchmark. Sizes (profile, MNL, shards)
// never change with the run length; only the job count does.
type workload struct {
	name string
	why  string

	profile string
	// vms is the nominal VM count of the workload's mappings (0: any);
	// mappings is how many distinct ones a run uses. Session s, or upload job
	// j, takes mapping s (j) modulo that count: where the cost of a job
	// depends on the mapping's details (how often a move shifts a feature
	// normaliser and forces a full forward), a run averages over several.
	vms         int
	mappings    int
	extractor   policy.ExtractorMode
	int8        bool
	incremental serve.IncrementalMode

	kind     jobKind
	sessions int // long-lived sessions; jobUpload creates its own per job
	clients  int // closed-loop client goroutines, never more than nproc
	mnl      int
	shards   int

	// jobs is the measured job count at nominalSeconds, a multiple of
	// passes*clients; warmup is the fixed unmeasured count inside set-up.
	jobs   int
	warmup int
	// snapshotEvery makes the (single) client call Coordinator.SnapshotAll
	// after every that-many jobs; 0 means never.
	snapshotEvery int
	// waveRows is the batch size the policy forward sees per wave on this
	// workload, used by the shadow replay.
	waveRows int
}

var workloads = []*workload{
	{
		name: "medium-sparse",
		why: "The paper's sparse-attention model at the paper's Medium size (280 PMs): nearly all of a job is " +
			"attention and dense kernels at batch 1, so kernel work shows here and nowhere else.",
		profile: "workload-mid", vms: 2050, mappings: 1, extractor: policy.SparseAttention, incremental: serve.IncrementalAuto,
		kind: jobStatic, sessions: 1, clients: 1, mnl: 2,
		jobs: 24, warmup: 1, waveRows: 1,
	},
	{
		name: "medium-incr-churn",
		why: "The cluster changes while the solve runs, so repair does real work and per-step overheads (feature " +
			"update, step cache, hand-off, env step) dominate; the workload with writes beside reads.",
		profile: "workload-mid", vms: 2050, mappings: 4, extractor: policy.NoAttention, incremental: serve.IncrementalAuto,
		kind: jobChurn, sessions: 4, clients: 1, mnl: 50,
		jobs: 96, warmup: 8, snapshotEvery: 20, waveRows: 1,
	},
	{
		name: "large-q8-c2",
		why: "The only concurrent workload and the only one on the int8 full-recompute wave path: two clients on " +
			"one replica share one scheduler, ~9400 rows per env at the paper's Large size.",
		profile: "large", vms: 8700, mappings: 2, extractor: policy.NoAttention, int8: true, incremental: serve.IncrementalOff,
		kind: jobStatic, sessions: 2, clients: 2, mnl: 10,
		jobs: 36, warmup: 2, waveRows: 2,
	},
	{
		name: "large-upload-sharded",
		why: "The cold path of a new tenant: mapping upload through the coordinator, trace codec on both sides, " +
			"8-way partition/extract/merge/repair on 1176 PMs; stateless where the others keep sessions.",
		profile: "large", vms: 8700, mappings: 4, extractor: policy.NoAttention, incremental: serve.IncrementalAuto,
		kind: jobUpload, clients: 1, mnl: 64, shards: 8,
		jobs: 48, warmup: 4, waveRows: 8,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// jobsFor scales the measured job count to the requested run length, keeping
// it a multiple of passes*clients so that the passes are equal and every
// client does the same work.
func (w *workload) jobsFor(seconds int) int {
	unit := passes * w.clients
	n := (w.jobs*seconds + nominalSeconds/2) / nominalSeconds
	n = n / unit * unit
	if n < unit {
		n = unit
	}
	return n
}

// request is the plan request every job of the workload submits.
func (w *workload) request() service.PlanRequest {
	return service.PlanRequest{MNL: w.mnl, Solver: "vmr2l", Shards: w.shards}
}

// churnTypes are the flavors the churn events draw arrivals from: the small
// end of paper Table 1, so that an arrival nearly always fits.
var churnTypes = []string{"large", "xlarge", "2xlarge", "4xlarge"}

// churnEvents draws one job's explicit event batch: as many exits as
// arrivals, so the cluster keeps its size. Exits name VM ids below the
// initial VM count; an id whose VM is already gone is a no-op server-side.
func churnEvents(rng *rand.Rand, vmIDs int) []service.SessionEvent {
	evs := make([]service.SessionEvent, eventsPerJob)
	for i := range evs {
		if i%2 == 0 {
			evs[i] = service.SessionEvent{Arrive: true, Type: churnTypes[rng.Intn(len(churnTypes))]}
			continue
		}
		vm := rng.Intn(vmIDs)
		evs[i] = service.SessionEvent{VM: &vm}
	}
	return evs
}
