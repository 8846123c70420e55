package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sched"
	"vmr2l/internal/serve"
	"vmr2l/internal/service"
	"vmr2l/internal/shard"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
	"vmr2l/internal/tensor"
	"vmr2l/internal/trace"
)

// The shadow replay calls each layer's public functions in this process, on
// the inputs the measured jobs had (same mapping, same model configuration),
// one span per call. It is how a traced run attributes time inside the
// replica without instrumenting the program under test.

const (
	// shadowReps is the number of calls behind each shadow figure — the
	// first ten jobs' worth; shadowBudget cuts a slow call short (never
	// below shadowMinReps) so the replay fits the run.
	shadowReps    = 10
	shadowMinReps = 2
	shadowBudget  = 400 * time.Millisecond
	// refShards is the partition count the shard and sub-cluster figures
	// use on workloads that do not shard themselves.
	refShards = 8
	// longEpisode keeps a shadow rollout from ending under the timer.
	longEpisode = 1 << 20
)

// warmForwardMS keys a figure the breakdown table needs but no metric names:
// a full forward into a warm context, the price of a step-cache fallback.
const warmForwardMS = "(policy full forward, warm ctx)"

var greedy = policy.SampleOpts{Greedy: true}

type shadow struct {
	rec *recorder
	out map[string]float64
	// The replay keeps the reference loop running at its usual share, so
	// that its figures can be put at the same machine speed as the jobs'.
	pace *pacer
}

// time calls fn repeatedly and returns the median duration in milliseconds.
// prep, when non-nil, runs untimed before each call but counts towards the
// budget.
func (sh *shadow) time(name string, prep, fn func()) float64 {
	var ms []float64
	begin := time.Now()
	for i := 0; i < shadowReps && (i < shadowMinReps || time.Since(begin) < shadowBudget); i++ {
		if prep != nil {
			prep()
		}
		ms = append(ms, sh.once(name, fn))
	}
	return median(ms)
}

// once times one call as one span.
func (sh *shadow) once(name string, fn func()) float64 {
	t := time.Now()
	fn()
	end := time.Now()
	sh.rec.add(0, shadowJob, "shadow "+name, t, end)
	sh.pace.keepUp()
	return ms(end.Sub(t))
}

// rollout is one greedy policy rollout over its own env and context.
type rollout struct {
	env    *sim.Env
	m      *policy.Model
	ic     *policy.InferCtx
	rng    *rand.Rand
	vm, pm int // the action the last infer chose
}

func newRollout(m *policy.Model, c *cluster.Cluster, incremental bool) *rollout {
	r := &rollout{env: sim.New(c, sim.DefaultConfig(longEpisode)), m: m, ic: policy.NewInferCtx(), rng: rand.New(rand.NewSource(1))}
	r.ic.SetIncremental(incremental)
	return r
}

// infer picks the next action; step applies the last one picked.
func (r *rollout) infer() {
	var err error
	if r.vm, r.pm, err = r.m.Infer(r.ic, r.env, r.rng, greedy); err != nil {
		r.env.Reset()
		r.vm, r.pm, _ = r.m.Infer(r.ic, r.env, r.rng, greedy) // a fresh mapping always has a migratable VM
	}
}

func (r *rollout) step() {
	if _, _, err := r.env.Step(r.vm, r.pm); err != nil {
		r.env.Reset()
	}
}

// anyMove applies some legal migration to env without running the policy:
// the sim figures need a changed cluster, not a good one.
func anyMove(env *sim.Env, rng *rand.Rand, vmMask, pmMask *[]bool) {
	*vmMask = env.VMMaskInto(*vmMask)
	for try := 0; try < 64; try++ {
		vm := rng.Intn(len(*vmMask))
		if !(*vmMask)[vm] {
			continue
		}
		*pmMask = env.PMMaskInto(vm, *pmMask)
		for off, n := rng.Intn(len(*pmMask)), 0; n < len(*pmMask); n++ {
			if pm := (off + n) % len(*pmMask); (*pmMask)[pm] {
				if _, _, err := env.Step(vm, pm); err == nil {
					return
				}
			}
		}
	}
	env.Reset()
}

// replay measures every in-process layer figure of the workload, and returns
// with them the disturbance factor of the time it ran in.
func (r *runner) replay(ctx context.Context, refPlan []service.PlanMigration) (map[string]float64, float64, error) {
	w := r.w
	sh := &shadow{rec: r.rec, out: map[string]float64{}, pace: r.cal.pace()}
	out := sh.out
	base := r.inputs[0].c.Clone()
	m := newModel(w)

	// trace: the mapping codec on both sides of an upload.
	var enc bytes.Buffer
	out["trace.write_mapping_ms"] = sh.time("trace.WriteMapping", enc.Reset, func() { _ = trace.WriteMapping(&enc, base) })
	out["trace.mapping_mb"] = float64(enc.Len()) / (1 << 20)
	raw := append([]byte(nil), enc.Bytes()...)
	var decodeErr error
	out["trace.read_mapping_ms"] = sh.time("trace.ReadMapping", nil, func() { _, decodeErr = trace.ReadMapping(bytes.NewReader(raw)) })
	if decodeErr != nil {
		return nil, 0, fmt.Errorf("shadow: mapping round trip: %w", decodeErr)
	}

	// cluster / shard: the per-job snapshot and the scale-out bookkeeping.
	shards := max(w.shards, refShards)
	out["cluster.clone_ms"] = sh.time("cluster.Clone", nil, func() { _ = base.Clone() })
	var parts [][]int
	out["shard.partition_ms"] = sh.time("shard.Partition", nil, func() { parts, _ = shard.Partition(base, shards) })
	out["cluster.extract_sub_ms"] = sh.time("cluster.ExtractSub", nil, func() { _, _ = base.ExtractSub(parts[0]) })

	// rows are the clusters the solver rows of one wave see: the shards of
	// the mapping on the sharded workload, the whole mapping elsewhere.
	rows := make([]*cluster.Cluster, w.waveRows)
	for i := range rows {
		rows[i] = base
		if w.shards > 1 {
			rows[i], _ = base.ExtractSub(parts[i%len(parts)])
		}
	}
	row := rows[0]
	nPM, nVM := len(row.PMs), len(row.VMs)

	// sim: extraction, masks, a step, and the journal-driven feature update
	// the step cache does after it.
	var (
		feat, upd      sim.Features
		vmMask, pmMask []bool
		updates, norm  int
	)
	mrng := rand.New(rand.NewSource(r.seed))
	env := sim.New(row, sim.DefaultConfig(longEpisode))
	out["sim.extract_ms"] = sh.time("sim.ExtractInto", nil, func() { sim.ExtractInto(&feat, row) })
	out["sim.mask_us"] = 1000 * sh.time("sim.VMMask+PMMask", nil, func() {
		vmMask = env.VMMaskInto(vmMask)
		pmMask = env.PMMaskInto(0, pmMask)
	})
	// One legal move is the two masks it draws from, then the step.
	move := 1000 * sh.time("sim masks+Step", nil, func() { anyMove(env, mrng, &vmMask, &pmMask) })
	out["sim.step_us"] = max(move-out["sim.mask_us"], 0)
	upd.UpdateInto(env.Cluster(), nil, nil, true)
	env.Cluster().ClearDirty()
	out["sim.update_ms"] = sh.time("sim.UpdateInto",
		func() { anyMove(env, mrng, &vmMask, &pmMask) },
		func() {
			c := env.Cluster()
			res := upd.UpdateInto(c, c.DirtyPMs(), c.DirtyVMs(), c.DirtyFull())
			c.ClearDirty()
			updates++
			if res.PMAll || res.VMAll {
				norm++
			}
		})
	out["sim.update_renorm_ratio"] = float64(norm) / float64(updates)

	// policy, cold: a job's first row meets a fresh context on a fresh env,
	// so the forward also sizes the arena and warms the cluster aggregates.
	turn := 0
	var coldEnv *sim.Env
	out["policy.forward_full_ms"] = sh.time("policy.Infer cold ctx",
		func() { turn++; coldEnv = sim.New(rows[turn%len(rows)], sim.DefaultConfig(1)) },
		func() {
			ic := policy.NewInferCtx()
			ic.SetIncremental(w.incremental != serve.IncrementalOff)
			_, _, _ = m.Infer(ic, coldEnv, rand.New(rand.NewSource(1)), greedy) // only the time matters
		})

	// policy, warm step cache: waveRows rollouts take turns, as the rows of
	// one lock-step wave do, so each forward finds another rollout's
	// activations in the CPU caches. A fallback is provoked the way the
	// journal reports one (a reset marks everything dirty): the full
	// recompute into a warm context that the serving counters call a
	// fallback. A hit is the forward after one applied step; calls that the
	// counters say were not hits (the step moved a normaliser) are left out.
	incrs := make([]*rollout, w.waveRows)
	for i := range incrs {
		incrs[i] = newRollout(m, rows[i], true)
		incrs[i].infer() // primes the cache: a counted miss
	}
	var ro *rollout
	out[warmForwardMS] = sh.time("policy.Infer fallback",
		func() { turn++; ro = incrs[turn%len(incrs)]; ro.env.Reset() },
		func() { ro.infer() })
	var hitMS []float64
	begin := time.Now()
	for calls := 0; calls < 8*shadowReps && len(hitMS) < shadowReps && (len(hitMS) < shadowMinReps || time.Since(begin) < 2*shadowBudget); calls++ {
		turn++
		ro = incrs[turn%len(incrs)]
		ro.step()
		before := ro.ic.IncrStats().Hits
		if ms := sh.once("policy.Infer incremental", ro.infer); ro.ic.IncrStats().Hits > before {
			hitMS = append(hitMS, ms)
		}
	}
	// A cluster so small that every step moves a normaliser never hits; its
	// incremental forward then costs what a fallback costs.
	out["policy.forward_incr_ms"] = out[warmForwardMS]
	if len(hitMS) > 0 {
		out["policy.forward_incr_ms"] = median(hitMS)
	}

	// policy, wave path at the workload's batch size.
	envs := make([]*sim.Env, w.waveRows)
	rngs := make([]*rand.Rand, w.waveRows)
	for i := range envs {
		envs[i] = sim.New(rows[i], sim.DefaultConfig(longEpisode))
		rngs[i] = rand.New(rand.NewSource(int64(i)))
	}
	bc := policy.NewBatchInferCtx()
	opts := []policy.SampleOpts{greedy}
	acts := m.InferBatch(bc, envs, rngs, opts, nil) // warms the arena
	out["policy.forward_wave_ms_per_row"] = sh.time("policy.InferBatch", nil, func() {
		acts = m.InferBatch(bc, envs, rngs, opts, acts)
	}) / float64(w.waveRows)
	out["policy.forward_mflop"] = forwardMflop(m.Cfg, row)

	// serve: Submit round trips paired with the direct call they wrap, on a
	// twin env taking the same steps; the figure is the median difference.
	sc := serve.NewScheduler(m, serve.Options{Incremental: w.incremental})
	defer sc.Close()
	direct := incrs[0]
	if w.extractor != policy.NoAttention || w.incremental == serve.IncrementalOff {
		direct = newRollout(m, row, false) // the scheduler serves this workload by full forwards
	}
	twin := sim.New(row, sim.DefaultConfig(longEpisode))
	direct.env.Reset()
	direct.infer()
	srng := rand.New(rand.NewSource(1))
	var (
		subErr error
		diffs  []float64
	)
	submit := func() {
		res, err := sc.Submit(ctx, policy.WaveReq{Kind: policy.WaveInfer, Env: twin, Rng: srng, Opts: greedy})
		if err != nil {
			subErr = err
		} else if _, _, err := twin.Step(res.VM, res.PM); err != nil {
			twin.Reset()
		}
	}
	submit() // first row primes the scheduler's context
	begin = time.Now()
	for i := 0; i < shadowReps && (i < shadowMinReps || time.Since(begin) < 2*shadowBudget); i++ {
		via := sh.once("serve.Submit", submit)
		direct.step()
		diffs = append(diffs, via-sh.once("policy.Infer direct", direct.infer))
	}
	if subErr != nil {
		return nil, 0, fmt.Errorf("shadow: scheduler submit: %w", subErr)
	}
	out["serve.submit_overhead_us"] = 1000 * median(diffs)

	// tensor: the kernels under the forward, at this workload's row count.
	nRows := nPM + nVM
	krng := rand.New(rand.NewSource(7))
	x := tensor.Randn(krng, nRows, m.Cfg.Hidden, 1)
	wgt := tensor.Randn(krng, m.Cfg.Hidden, m.Cfg.DModel, 1.0/8)
	bias := tensor.Randn(krng, 1, m.Cfg.DModel, 0.1)
	qw := tensor.QuantizeWeight(wgt)
	ar := &tensor.Arena{}
	out["tensor.linear_f64_ms"] = sh.time("tensor.MatMul+AddRow", ar.Reset, func() { _ = ar.AddRowInPlace(ar.MatMul(x, wgt), bias) })
	out["tensor.linear_q8_ms"] = sh.time("tensor.LinearQ8", ar.Reset, func() { _ = ar.LinearQ8(x, qw, bias) })
	q := tensor.Randn(krng, nRows, m.Cfg.DModel, 1)
	groups := treeGroups(row)
	scale := 1 / math.Sqrt(float64(m.Cfg.DModel))
	out["tensor.attention_ms"] = sh.time("tensor.GroupedAttention", ar.Reset, func() { _ = ar.GroupedAttention(q, q, q, groups, scale) })
	if w.extractor != policy.NoAttention {
		// The dense VM self-attention of the same block: scores, softmax,
		// weighted sum over all VM rows.
		qv := tensor.Randn(krng, nVM, m.Cfg.DModel, 1)
		out["tensor.attention_ms"] += sh.time("tensor dense attention", ar.Reset, func() {
			_ = ar.MatMul(ar.Softmax(ar.Scale(ar.MatMulT(qv, qv), scale)), qv)
		})
	}

	// sched + solver: churn a harness-side twin of the session the way the
	// events handler does, then validate and repair a real plan against it.
	live := base.Clone()
	dyn := sched.NewDynamics(live, rand.New(rand.NewSource(r.seed)), cluster.StandardTypes, sched.Diurnal(2))
	dyn.SetReuseSlots(true)
	evRng := rand.New(rand.NewSource(r.seed))
	out["sched.advance_ms"] = sh.time("sched.Advance+events", nil, func() {
		dyn.Advance(1)
		if w.kind == jobChurn {
			applyEvents(dyn, churnEvents(evRng, len(base.VMs)))
		}
	})
	plan := toMigrations(refPlan)
	against := base
	if w.kind == jobChurn {
		against = live
	}
	out["solver.validate_ms"] = sh.time("solver.ValidatePlan", nil, func() { _ = solver.ValidatePlan(against, plan) })
	out["solver.repair_ms"] = sh.time("solver.RepairPlanObjective", nil, func() { _ = solver.RepairPlanObjective(against, plan, sim.FR16()) })

	// shard: the whole scale-out solve through a scheduler-backed agent.
	agent := &serve.Agent{Sched: sc, Opts: greedy, Seed: 1}
	var shardErr error
	out["shard.solve_ms"] = sh.time("shard.Solve", nil, func() {
		_, err := shard.Solve(ctx, base, sim.DefaultConfig(max(w.mnl, shards)),
			[]shard.Engine{{Name: "vmr2l", S: agent}}, shard.Options{Shards: shards})
		if err != nil {
			shardErr = err
		}
	})
	if shardErr != nil {
		return nil, 0, fmt.Errorf("shadow: sharded solve: %w", shardErr)
	}
	return out, sh.pace.factor(), nil
}

// applyEvents replays an event batch on a harness-side dynamics engine the
// way the service's events handler does.
func applyEvents(dyn *sched.Dynamics, evs []service.SessionEvent) {
	for _, ev := range evs {
		if ev.Arrive {
			t, _ := cluster.TypeByName(ev.Type) // churnEvents draws only standard flavors
			dyn.Arrive(t)
		} else if ev.VM != nil {
			dyn.Exit(*ev.VM)
		}
	}
}

// treeGroups is the PM-tree partition of the stacked [PM; VM] rows: one
// group per PM, holding the PM's row and its hosted VMs' rows.
func treeGroups(c *cluster.Cluster) [][]int {
	groups := make([][]int, len(c.PMs))
	for p := range c.PMs {
		g := []int{p}
		for _, v := range c.PMs[p].VMs {
			g = append(g, len(c.PMs)+v)
		}
		groups[p] = g
	}
	return groups
}

// forwardMflop counts the floating-point operations of one forward pass from
// the tensor shapes alone (a multiply-add is two operations; normalisation,
// softmax and activation passes are left out). It is computed, not measured.
func forwardMflop(cfg policy.Config, c *cluster.Cluster) float64 {
	P, V := float64(len(c.PMs)), float64(len(c.VMs))
	d, h := float64(cfg.DModel), float64(cfg.Hidden)
	flop := 2*P*(sim.PMFeatDim*h+h*d) + 2*V*(sim.VMFeatDim*h+h*d) // embeddings
	proj := func(rows float64) float64 { return 2 * rows * d * d }
	perBlock := 4 * (P + V) * d * h // feed-forward, both sides
	if cfg.Extractor == policy.SparseAttention {
		sumSq := 0.0
		for p := range c.PMs {
			g := float64(1 + len(c.PMs[p].VMs))
			sumSq += g * g
		}
		perBlock += 4*proj(P+V) + 4*d*sumSq
	}
	if cfg.Extractor != policy.NoAttention {
		perBlock += 4*proj(P) + 4*P*P*d             // PM self-attention
		perBlock += 4*proj(V) + 4*V*V*d             // VM self-attention
		perBlock += 2*proj(V) + 2*proj(P) + 4*V*P*d // VM -> PM cross-attention
	}
	flop += float64(cfg.Blocks) * perBlock
	flop += 2*V*d + 2*P*((2*d+1)*h+h) // VM head, PM merge
	return flop / 1e6
}
