package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

func incrModel() *policy.Model {
	return policy.New(policy.Config{DModel: 16, Hidden: 24, Blocks: 2,
		Extractor: policy.NoAttention, Seed: 31})
}

// TestIncrementalServeParity runs several concurrent rollouts through a
// scheduler, each submitting its rows with a step cache it owns, and checks
// every step agrees with the standalone greedy path on an identical twin
// env, and that the cache counters add up with no silent losses.
func TestIncrementalServeParity(t *testing.T) {
	m := incrModel()
	s := NewScheduler(m, Options{Incremental: IncrementalAuto})
	defer s.Close()

	const sessions = 6
	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			env := testEnv(t, int64(100+w), 8, 24, 12)
			ref := testEnv(t, int64(100+w), 8, 24, 12)
			caches := s.acquireCaches([]*sim.Env{env})
			defer s.releaseCaches(caches)
			if n := s.Stats().IncrSessions; n < 1 || n > sessions {
				t.Errorf("session %d: %d caches held", w, n)
			}
			ic := policy.NewInferCtx()
			for !env.Done() {
				res, err := s.submitMany(context.Background(), []policy.WaveReq{{
					Kind: policy.WaveInfer, Env: env,
					Rng: rand.New(rand.NewSource(int64(w))), Opts: policy.SampleOpts{Greedy: true},
				}}, caches, nil)
				if err != nil {
					t.Errorf("session %d: %v", w, err)
					return
				}
				vm, pm, err := res[0].VM, res[0].PM, res[0].Err
				rvm, rpm, rerr := m.Infer(ic, ref,
					rand.New(rand.NewSource(int64(w))), policy.SampleOpts{Greedy: true})
				if (err != nil) != (rerr != nil) {
					t.Errorf("session %d: err %v vs %v", w, err, rerr)
					return
				}
				if err != nil {
					return // no migratable VM: both paths agree
				}
				if vm != rvm || pm != rpm {
					t.Errorf("session %d: served (%d,%d) != standalone (%d,%d)", w, vm, pm, rvm, rpm)
					return
				}
				if _, _, err := env.Step(vm, pm); err != nil {
					t.Errorf("session %d: %v", w, err)
					return
				}
				if _, _, err := ref.Step(rvm, rpm); err != nil {
					t.Errorf("session %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.IncrRows == 0 {
		t.Fatalf("no rows went through step caches: %+v", st)
	}
	if st.IncrRows != st.IncrHits+st.IncrMisses+st.IncrFallbacks {
		t.Fatalf("counters don't add up (silent loss): %+v", st)
	}
	if st.IncrMisses < sessions {
		t.Fatalf("each session's first row must miss: %+v", st)
	}
	if st.IncrSessions != 0 {
		t.Fatalf("%d caches still counted after every rollout released: %+v", st.IncrSessions, st)
	}
}

// TestBareRowsShareRunnerCache: WaveInfer rows submitted without a cache
// ride the runner's own, so a stream of them on one env misses once and
// then hits, answers as the standalone path does, and holds no rollout
// cache.
func TestBareRowsShareRunnerCache(t *testing.T) {
	m := incrModel()
	s := NewScheduler(m, Options{})
	defer s.Close()
	env := testEnv(t, 150, 8, 24, 12)
	ref := testEnv(t, 150, 8, 24, 12)
	ic := policy.NewInferCtx()
	steps := uint64(0)
	for !env.Done() {
		vm, pm, err := infer(context.Background(), s, env, rand.New(rand.NewSource(3)), policy.SampleOpts{Greedy: true})
		rvm, rpm, rerr := m.Infer(ic, ref, rand.New(rand.NewSource(3)), policy.SampleOpts{Greedy: true})
		if vm != rvm || pm != rpm || (err != nil) != (rerr != nil) {
			t.Fatalf("step %d: served (%d,%d,%v) != standalone (%d,%d,%v)", steps, vm, pm, err, rvm, rpm, rerr)
		}
		steps++
		if err != nil {
			break
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ref.Step(rvm, rpm); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.IncrRows != steps || st.IncrMisses != 1 || st.IncrHits == 0 {
		t.Fatalf("%d bare rows on one env: %+v", steps, st)
	}
	requireReleased(t, s)
}

// TestIncrementalModeGating: Auto only engages for fully incremental
// extractors; Off disables; On forces. The mode decides whether a rollout
// attaches caches to its rows.
func TestIncrementalModeGating(t *testing.T) {
	sparse := policy.New(policy.Config{DModel: 16, Hidden: 24, Blocks: 1, Heads: 1, Seed: 3})
	cases := []struct {
		name string
		m    *policy.Model
		mode IncrementalMode
		want bool
	}{
		{"auto/none", incrModel(), IncrementalAuto, true},
		{"auto/sparse", sparse, IncrementalAuto, false},
		{"on/sparse", sparse, IncrementalOn, true},
		{"off/none", incrModel(), IncrementalOff, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScheduler(tc.m, Options{Incremental: tc.mode})
			defer s.Close()
			env := testEnv(t, 7, 8, 24, 4)
			a := &Agent{Sched: s, Opts: policy.SampleOpts{Greedy: true}, Seed: 1}
			if err := a.Solve(context.Background(), env); err != nil {
				t.Fatal(err)
			}
			got := s.Stats().IncrRows > 0
			if got != tc.want {
				t.Fatalf("incremental engaged = %v, want %v (stats %+v)", got, tc.want, s.Stats())
			}
		})
	}
}

// requireReleased checks the ownership contract after a rollout returned:
// no cache is still counted as held, and every cached row is accounted for.
func requireReleased(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Stats()
	if st.IncrSessions != 0 {
		t.Fatalf("%d caches held after the rollout returned: %+v", st.IncrSessions, st)
	}
	if st.IncrRows != st.IncrHits+st.IncrMisses+st.IncrFallbacks {
		t.Fatalf("counters don't add up (silent loss): %+v", st)
	}
}

// checkPrefix reports an error unless got is a prefix of want (equal when
// full). Safe to call from any goroutine.
func checkPrefix(t *testing.T, label string, want, got []sim.Migration, full bool) {
	t.Helper()
	if len(got) > len(want) || (full && len(got) != len(want)) {
		t.Errorf("%s: %d migrations against %d in the reference", label, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: migration %d: %+v != %+v", label, i, got[i], want[i])
			return
		}
	}
}

// waitRows blocks until the scheduler has served at least n cached rows.
func waitRows(t *testing.T, s *Scheduler, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().IncrRows < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d cached rows served", s.Stats().IncrRows)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestRolloutReleasesCaches pins cache ownership: a rollout holds one cache
// per environment while it runs and releases all of them when Rollout
// returns, whether it finished, its context was cancelled, or the scheduler
// was closed under it. The mid-rollout cases hold every wave open for
// MaxWait, so the long rollout is still in flight when it is stopped
// however fast the forwards run.
func TestRolloutReleasesCaches(t *testing.T) {
	m := incrModel()
	const B, longMNL = 3, 300
	slow := Options{MaxWait: 2 * time.Millisecond}
	envs := func(mnl int) []*sim.Env {
		out := make([]*sim.Env, B)
		for b := range out {
			out[b] = testEnv(t, int64(300+b), 12, 30, mnl)
		}
		return out
	}
	reference := func(mnl int) []*sim.Env {
		want := envs(mnl)
		if err := (&policy.Agent{Model: m, Seed: 5}).SolveBatch(context.Background(), want); err != nil {
			t.Fatal(err)
		}
		return want
	}
	// midSolve runs a long SolveBatch in the background and calls stop once
	// the rollout is provably in flight: rows served, caches held.
	midSolve := func(t *testing.T, s *Scheduler, ctx context.Context, stop func()) ([]*sim.Env, error) {
		got := envs(longMNL)
		errc := make(chan error, 1)
		go func() { errc <- (&Agent{Sched: s, Seed: 5}).SolveBatch(ctx, got) }()
		waitRows(t, s, 2*B)
		if n := s.Stats().IncrSessions; n != B {
			t.Errorf("%d caches held mid-rollout, want %d", n, B)
		}
		stop()
		return got, <-errc
	}

	t.Run("return", func(t *testing.T) {
		s := NewScheduler(m, Options{})
		defer s.Close()
		want, got := reference(12), envs(12)
		if err := (&Agent{Sched: s, Seed: 5}).SolveBatch(context.Background(), got); err != nil {
			t.Fatal(err)
		}
		for b := range got {
			checkPrefix(t, "return", want[b].Plan(), got[b].Plan(), true)
		}
		if s.Stats().IncrRows == 0 {
			t.Fatal("no rows went through step caches")
		}
		requireReleased(t, s)
	})

	t.Run("cancel", func(t *testing.T) {
		s := NewScheduler(m, slow)
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		got, err := midSolve(t, s, ctx, cancel)
		if err != nil {
			t.Fatalf("cancelled rollout: %v", err)
		}
		want := reference(longMNL)
		for b := range got {
			if len(got[b].Plan()) >= len(want[b].Plan()) {
				t.Fatalf("env %d ran to the end (%d steps): cancellation landed too late", b, len(got[b].Plan()))
			}
			checkPrefix(t, "cancel", want[b].Plan(), got[b].Plan(), false)
		}
		requireReleased(t, s)
	})

	t.Run("close", func(t *testing.T) {
		s := NewScheduler(m, slow)
		_, err := midSolve(t, s, context.Background(), func() { s.Close() })
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("rollout under Close returned %v, want ErrClosed", err)
		}
		requireReleased(t, s)
	})
}

// TestConcurrentRolloutsWithCancellation runs several rollouts on distinct
// envs through one scheduler while random ones are cancelled part way. A
// rollout that ran to the end reproduces policy.Agent's plan bit for bit; a
// cancelled one produced a prefix of it; and afterwards no cache is held.
func TestConcurrentRolloutsWithCancellation(t *testing.T) {
	m := incrModel()
	s := NewScheduler(m, Options{})
	defer s.Close()
	const G, rounds, mnl = 6, 3, 40
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				seed := int64(400 + 10*g + r)
				want := testEnv(t, seed, 10, 28, mnl)
				if err := (&policy.Agent{Model: m, Seed: seed}).Solve(context.Background(), want); err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
				}
				got := testEnv(t, seed, 10, 28, mnl)
				err := (&Agent{Sched: s, Seed: seed}).Solve(ctx, got)
				completed := ctx.Err() == nil
				cancel()
				if err != nil {
					t.Error(err)
					return
				}
				label := "rollout"
				if !completed {
					label = "cancelled rollout"
				}
				checkPrefix(t, label, want.Plan(), got.Plan(), completed)
			}
		}(g)
	}
	wg.Wait()
	requireReleased(t, s)
}
