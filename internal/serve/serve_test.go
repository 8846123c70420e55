package serve

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// testEnv builds a small random environment (mirrors the policy package's
// batch test fixture); the same seed always yields the same environment, so
// sequential-reference and scheduler runs can work on identical twins.
func testEnv(t *testing.T, seed int64, nPM, nVM, mnl int) *sim.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.New(nPM, cluster.PMSmall)
	for i := 0; i < nVM; i++ {
		vt := cluster.StandardTypes[rng.Intn(4)]
		id := c.AddVM(vt)
		pm := rng.Intn(len(c.PMs))
		numa := rng.Intn(cluster.NumasPerPM)
		if c.VMs[id].Numas == 2 {
			numa = 0
		}
		for try := 0; try < 6 && c.Place(id, pm, numa) != nil; try++ {
			pm = rng.Intn(len(c.PMs))
		}
	}
	return sim.New(c, sim.DefaultConfig(mnl))
}

func testModel(mode policy.ActionMode) *policy.Model {
	return policy.New(policy.Config{DModel: 16, Hidden: 24, Blocks: 1, Heads: 1, Action: mode, Seed: 31})
}

// stepRecord is one submitter's observation of one step.
type stepRecord struct {
	vm, pm  int
	errSet  bool
	logProb float64
	value   float64
	hasDec  bool
}

// rolloutSequential is the per-submitter reference: a full episode on env
// using the standalone policy paths, recording every step.
func rolloutSequential(t *testing.T, m *policy.Model, env *sim.Env, kind policy.WaveKind, seed int64, opts policy.SampleOpts) []stepRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bc := policy.NewInferCtx()
	var recs []stepRecord
	for !env.Done() {
		var rec stepRecord
		var vm, pm int
		switch kind {
		case policy.WaveAct:
			dec, err := m.Act(env, rng, opts)
			if err != nil {
				recs = append(recs, stepRecord{errSet: true})
				return recs
			}
			vm, pm = dec.State.VM, dec.State.PM
			rec = stepRecord{vm: vm, pm: pm, logProb: dec.LogProb, value: dec.Value, hasDec: true}
		default:
			ic := policy.NewInferCtx()
			v, p, err := m.Infer(ic, env, rng, opts)
			if err != nil {
				recs = append(recs, stepRecord{errSet: true})
				return recs
			}
			vm, pm = v, p
			rec = stepRecord{vm: vm, pm: pm}
			if kind == policy.WaveValue {
				// Value submitters also score the pre-step state each step.
				vals := m.ValuesBatch(bc, []*cluster.Cluster{env.Cluster()}, nil)
				rec.value = vals[0]
			}
		}
		recs = append(recs, rec)
		if m.Cfg.Action == policy.Penalty {
			if _, _, err := env.PenaltyStep(vm, pm, -5); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// infer serves one WaveInfer row for env through s: one action, identical
// to Model.Infer with the same rng.
func infer(ctx context.Context, s *Scheduler, env *sim.Env, rng *rand.Rand, opts policy.SampleOpts) (vm, pm int, err error) {
	res, err := s.Submit(ctx, policy.WaveReq{Kind: policy.WaveInfer, Env: env, Rng: rng, Opts: opts})
	if err != nil {
		return 0, 0, err
	}
	return res.VM, res.PM, res.Err
}

// rolloutScheduler replays the same episode through the shared scheduler.
func rolloutScheduler(t *testing.T, s *Scheduler, env *sim.Env, kind policy.WaveKind, seed int64, opts policy.SampleOpts, jitter *rand.Rand) []stepRecord {
	t.Helper()
	m := s.Model()
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	var recs []stepRecord
	for !env.Done() {
		if jitter != nil {
			time.Sleep(time.Duration(jitter.Intn(120)) * time.Microsecond)
		}
		var rec stepRecord
		var vm, pm int
		switch kind {
		case policy.WaveAct:
			res, err := s.Submit(ctx, policy.WaveReq{Kind: policy.WaveAct, Env: env, Rng: rng, Opts: opts})
			if err == nil {
				err = res.Err
			}
			if err != nil {
				recs = append(recs, stepRecord{errSet: true})
				return recs
			}
			dec := res.Dec
			vm, pm = dec.State.VM, dec.State.PM
			rec = stepRecord{vm: vm, pm: pm, logProb: dec.LogProb, value: dec.Value, hasDec: true}
		default:
			if kind == policy.WaveValue {
				vals, err := s.BatchValues(ctx, []*cluster.Cluster{env.Cluster()}, nil)
				if err != nil {
					t.Fatal(err)
				}
				rec.value = vals[0]
			}
			v, p, err := infer(ctx, s, env, rng, opts)
			if err != nil {
				recs = append(recs, stepRecord{errSet: true})
				return recs
			}
			vm, pm = v, p
			rec.vm, rec.pm = vm, pm
		}
		recs = append(recs, rec)
		if m.Cfg.Action == policy.Penalty {
			if _, _, err := env.PenaltyStep(vm, pm, -5); err != nil {
				t.Fatal(err)
			}
		} else if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

// TestSubmitBitIdenticalUnderConcurrency is the ragged/straggler property
// test: K concurrent submitters with random arrival jitter — mixing infer,
// act, and value traffic — each receive results bit-identical to their own
// sequential standalone rollout, across all three action modes and
// GOMAXPROCS 1 and 4.
func TestSubmitBitIdenticalUnderConcurrency(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, mode := range []policy.ActionMode{policy.TwoStage, policy.Penalty, policy.FullMask} {
			m := testModel(mode)
			const K = 12
			kinds := []policy.WaveKind{policy.WaveInfer, policy.WaveAct, policy.WaveValue}
			want := make([][]stepRecord, K)
			opts := make([]policy.SampleOpts, K)
			for k := 0; k < K; k++ {
				if mode == policy.TwoStage && k%2 == 1 {
					opts[k] = policy.SampleOpts{VMQuantile: 0.5, PMQuantile: 0.5}
				}
				if k%4 == 0 {
					opts[k].Greedy = true
				}
				env := testEnv(t, int64(600+7*k), 3+k%3, 8+k, 3+k%3)
				want[k] = rolloutSequential(t, m, env, kinds[k%3], int64(9000+k), opts[k])
			}
			s := NewScheduler(m, Options{MaxRows: 8})
			got := make([][]stepRecord, K)
			var wg sync.WaitGroup
			for k := 0; k < K; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					env := testEnv(t, int64(600+7*k), 3+k%3, 8+k, 3+k%3)
					jit := rand.New(rand.NewSource(int64(77 + k)))
					got[k] = rolloutScheduler(t, s, env, kinds[k%3], int64(9000+k), opts[k], jit)
				}(k)
			}
			wg.Wait()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < K; k++ {
				if len(got[k]) != len(want[k]) {
					t.Fatalf("procs %d mode %v submitter %d: %d steps != %d", procs, mode, k, len(got[k]), len(want[k]))
				}
				for i := range want[k] {
					if got[k][i] != want[k][i] {
						t.Fatalf("procs %d mode %v submitter %d step %d: %+v != %+v",
							procs, mode, k, i, got[k][i], want[k][i])
					}
				}
			}
			if st := s.Stats(); st.Submitted != st.Rows+st.DroppedCancel {
				t.Fatalf("procs %d mode %v: accounting %d submitted != %d rows + %d dropped",
					procs, mode, st.Submitted, st.Rows, st.DroppedCancel)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSubmitCancelUnderLoad drives concurrent submitters while half the
// contexts cancel at random points: cancelled rows must resolve promptly
// with ctx.Err() (or a computed result if already sealed), surviving rows
// must still get bit-identical results, and nothing may deadlock or corrupt
// the shared wave. Run under -race in CI.
func TestSubmitCancelUnderLoad(t *testing.T) {
	m := testModel(policy.TwoStage)
	// A long admission window keeps rows queued, so cancellations reliably
	// hit rows that have not been sealed yet.
	s := NewScheduler(m, Options{MaxRows: 4, MaxWait: 2 * time.Millisecond})
	defer s.Close()

	const K = 64
	// Survivors' greedy single-step reference on their private envs.
	type refAct struct{ vm, pm int }
	refs := make([]refAct, K)
	for k := range refs {
		env := testEnv(t, int64(300+k), 3, 9, 2)
		ic := policy.NewInferCtx()
		vm, pm, err := m.Infer(ic, env, rand.New(rand.NewSource(int64(k))), policy.SampleOpts{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[k] = refAct{vm, pm}
	}

	var wg sync.WaitGroup
	errsCh := make(chan error, K)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			env := testEnv(t, int64(300+k), 3, 9, 2)
			ctx := context.Background()
			cancelled := k%2 == 1
			if cancelled {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				if k%4 == 1 {
					cancel() // cancelled before submit: must drop while queued
				} else {
					go func() {
						time.Sleep(time.Duration(k%7) * 100 * time.Microsecond)
						cancel()
					}()
					defer cancel()
				}
			}
			res, err := s.Submit(ctx, policy.WaveReq{
				Kind: policy.WaveInfer, Env: env,
				Rng: rand.New(rand.NewSource(int64(k))), Opts: policy.SampleOpts{Greedy: true},
			})
			if err != nil {
				if !cancelled || err != context.Canceled {
					errsCh <- err
				}
				return
			}
			// Completed (cancelled-after-seal included): result must match
			// the standalone reference.
			if res.Err == nil && (res.VM != refs[k].vm || res.PM != refs[k].pm) {
				t.Errorf("submitter %d: (%d,%d) != (%d,%d)", k, res.VM, res.PM, refs[k].vm, refs[k].pm)
			}
		}(k)
	}
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		t.Fatalf("unexpected submit error: %v", err)
	}
	st := s.Stats()
	if st.DroppedCancel == 0 {
		t.Fatal("expected some rows dropped on cancellation")
	}
	if st.Submitted != st.Rows+st.DroppedCancel {
		t.Fatalf("accounting: %d submitted != %d rows + %d dropped", st.Submitted, st.Rows, st.DroppedCancel)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue not drained: depth %d", st.QueueDepth)
	}
}

// TestSchedulerStats pins the counter semantics on deterministic traffic.
func TestSchedulerStats(t *testing.T) {
	m := testModel(policy.TwoStage)
	s := NewScheduler(m, Options{MaxRows: 8})
	defer s.Close()
	env := testEnv(t, 42, 3, 9, 4)
	rng := rand.New(rand.NewSource(1))
	const N = 5
	for i := 0; i < N; i++ {
		if _, _, err := infer(context.Background(), s, env, rng, policy.SampleOpts{Greedy: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Submitted != N || st.Rows != N || st.DroppedCancel != 0 {
		t.Fatalf("counters: %+v", st)
	}
	if st.Waves == 0 || st.Waves > N {
		t.Fatalf("waves: %+v", st)
	}
	if st.MaxWave < 1 || st.MeanWave < 1 {
		t.Fatalf("wave sizes: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth: %+v", st)
	}
}

// TestSchedulerClose pins shutdown: Close is idempotent, Submit after Close
// fails fast with ErrClosed, and rows submitted before Close still resolve.
func TestSchedulerClose(t *testing.T) {
	m := testModel(policy.TwoStage)
	s := NewScheduler(m, Options{MaxRows: 8})
	env := testEnv(t, 43, 3, 9, 4)
	if _, _, err := infer(context.Background(), s, env, rand.New(rand.NewSource(1)), policy.SampleOpts{Greedy: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), policy.WaveReq{Kind: policy.WaveInfer, Env: env, Rng: rand.New(rand.NewSource(2))}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}
