package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
)

// withPriority tags ctx with a shedding priority (higher survives longer in
// degraded mode; negative marks best-effort work that sheds first).
func withPriority(ctx context.Context, p int) context.Context {
	return context.WithValue(ctx, prioKey{}, p)
}

// waitDepth polls until the scheduler's queue holds want rows.
func waitDepth(t *testing.T, s *Scheduler, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().QueueDepth >= want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("queue never reached depth %d (at %d)", want, s.Stats().QueueDepth)
}

func shedAccounting(t *testing.T, s *Scheduler) {
	t.Helper()
	st := s.Stats()
	if st.Submitted != st.Rows+st.DroppedCancel+st.DroppedShed {
		t.Fatalf("accounting: %d submitted != %d rows + %d cancelled + %d shed",
			st.Submitted, st.Rows, st.DroppedCancel, st.DroppedShed)
	}
}

func TestPriorityContext(t *testing.T) {
	if got := Priority(nil); got != 0 {
		t.Fatalf("nil ctx priority %d", got)
	}
	if got := Priority(context.Background()); got != 0 {
		t.Fatalf("untagged priority %d", got)
	}
	if got := Priority(withPriority(context.Background(), -3)); got != -3 {
		t.Fatalf("tagged priority %d", got)
	}
}

// TestShedLowestPriorityFirst pins degraded mode: with the queue at
// ShedDepth, an arriving higher-priority row evicts the lowest-priority
// queued row (which resolves with ErrShed), and an arriving row that is
// itself lowest sheds immediately without queueing.
func TestShedLowestPriorityFirst(t *testing.T) {
	m := testModel(policy.TwoStage)
	// A long admission window keeps the queue intact while the test builds
	// its deterministic overload.
	s := NewScheduler(m, Options{MaxRows: 16, MaxWait: 500 * time.Millisecond, ShedDepth: 2})
	defer s.Close()

	submit := func(prio int, errCh chan<- error) {
		env := testEnv(t, 500+int64(prio), 3, 9, 2)
		_, err := s.Submit(withPriority(context.Background(), prio), policy.WaveReq{
			Kind: policy.WaveInfer, Env: env,
			Rng: rand.New(rand.NewSource(1)), Opts: policy.SampleOpts{Greedy: true},
		})
		errCh <- err
	}

	lowCh, midCh := make(chan error, 1), make(chan error, 1)
	go submit(-1, lowCh)
	waitDepth(t, s, 1)
	go submit(0, midCh)
	waitDepth(t, s, 2)

	// Queue is at ShedDepth. A high-priority arrival evicts the prio -1 row.
	highCh := make(chan error, 1)
	go submit(5, highCh)
	if err := <-lowCh; !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority row got %v, want ErrShed", err)
	}

	// An arrival that is itself the lowest sheds synchronously.
	env := testEnv(t, 510, 3, 9, 2)
	_, err := s.Submit(withPriority(context.Background(), -7), policy.WaveReq{
		Kind: policy.WaveInfer, Env: env,
		Rng: rand.New(rand.NewSource(1)), Opts: policy.SampleOpts{Greedy: true},
	})
	if !errors.Is(err, ErrShed) {
		t.Fatalf("lowest incoming got %v, want ErrShed", err)
	}

	// The surviving rows ride out the window and compute normally.
	if err := <-midCh; err != nil {
		t.Fatalf("surviving mid row: %v", err)
	}
	if err := <-highCh; err != nil {
		t.Fatalf("surviving high row: %v", err)
	}
	st := s.Stats()
	if st.DroppedShed != 2 {
		t.Fatalf("shed %d rows, want 2 (%+v)", st.DroppedShed, st)
	}
	shedAccounting(t, s)
}

// TestShedTieNewestLoses pins the tie rule: equal priority sheds the
// incoming (newer) row, never the older queued one.
func TestShedTieNewestLoses(t *testing.T) {
	m := testModel(policy.TwoStage)
	s := NewScheduler(m, Options{MaxRows: 16, MaxWait: 300 * time.Millisecond, ShedDepth: 1})
	defer s.Close()

	firstCh := make(chan error, 1)
	go func() {
		env := testEnv(t, 520, 3, 9, 2)
		_, err := s.Submit(context.Background(), policy.WaveReq{
			Kind: policy.WaveInfer, Env: env,
			Rng: rand.New(rand.NewSource(1)), Opts: policy.SampleOpts{Greedy: true},
		})
		firstCh <- err
	}()
	waitDepth(t, s, 1)

	env := testEnv(t, 521, 3, 9, 2)
	if _, err := s.Submit(context.Background(), policy.WaveReq{
		Kind: policy.WaveInfer, Env: env,
		Rng: rand.New(rand.NewSource(1)), Opts: policy.SampleOpts{Greedy: true},
	}); !errors.Is(err, ErrShed) {
		t.Fatalf("incoming tie got %v, want ErrShed", err)
	}
	if err := <-firstCh; err != nil {
		t.Fatalf("older row must survive the tie: %v", err)
	}
	shedAccounting(t, s)
}

// TestShedDisabledByDefault pins that ShedDepth 0 never sheds, whatever the
// backlog.
func TestShedDisabledByDefault(t *testing.T) {
	m := testModel(policy.TwoStage)
	s := NewScheduler(m, Options{MaxRows: 4})
	defer s.Close()
	var wg sync.WaitGroup
	for k := 0; k < 32; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			env := testEnv(t, int64(530+k), 3, 9, 2)
			if _, err := s.Submit(withPriority(context.Background(), -k), policy.WaveReq{
				Kind: policy.WaveInfer, Env: env,
				Rng: rand.New(rand.NewSource(int64(k))), Opts: policy.SampleOpts{Greedy: true},
			}); err != nil {
				t.Errorf("submitter %d: %v", k, err)
			}
		}(k)
	}
	wg.Wait()
	if st := s.Stats(); st.DroppedShed != 0 {
		t.Fatalf("shed %d rows with shedding disabled", st.DroppedShed)
	}
	shedAccounting(t, s)
}

// stuckEnv returns an environment with no legal migration at all (a single
// full PM), so every wave row computed on it resolves with
// policy.ErrNoMigratableVM — the injected wave-error fixture.
func stuckEnv(t *testing.T) *sim.Env {
	t.Helper()
	c := cluster.New(1, cluster.PMSmall)
	full := cluster.VMType{CPU: cluster.PMSmall.CPUPerNuma, Mem: cluster.PMSmall.MemPerNuma, Numas: 1}
	for numa := 0; numa < cluster.NumasPerPM; numa++ {
		if err := c.Place(c.AddVM(full), 0, numa); err != nil {
			t.Fatal(err)
		}
	}
	return sim.New(c, sim.DefaultConfig(2))
}

// TestCancelAfterSealedReturnsResult is the cancel-after-seal path: a row
// whose context cancels once the row is already sealed into an executing
// wave must ride the wave out and return the computed result (or the
// row-level model error), never ctx.Err(). Run under -race in CI.
func TestCancelAfterSealedReturnsResult(t *testing.T) {
	m := testModel(policy.TwoStage)
	ref := func() (int, int) {
		env := testEnv(t, 540, 3, 9, 2)
		ic := policy.NewInferCtx()
		vm, pm, err := m.Infer(ic, env, rand.New(rand.NewSource(9)), policy.SampleOpts{Greedy: true})
		if err != nil {
			t.Fatal(err)
		}
		return vm, pm
	}
	wantVM, wantPM := ref()

	for round := 0; round < 20; round++ {
		s := NewScheduler(m, Options{MaxRows: 8})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var res policy.WaveRes
		var err error
		go func() {
			defer close(done)
			env := testEnv(t, 540, 3, 9, 2)
			res, err = s.Submit(ctx, policy.WaveReq{
				Kind: policy.WaveInfer, Env: env,
				Rng: rand.New(rand.NewSource(9)), Opts: policy.SampleOpts{Greedy: true},
			})
		}()
		// Rows are counted at seal time, before the wave executes: once Rows
		// ticks, the row can no longer be dropped by cancellation.
		deadline := time.Now().Add(2 * time.Second)
		for s.Stats().Rows == 0 && time.Now().Before(deadline) {
		}
		cancel()
		<-done
		if err != nil {
			t.Fatalf("round %d: sealed row returned %v, want computed result", round, err)
		}
		if res.Err != nil || res.VM != wantVM || res.PM != wantPM {
			t.Fatalf("round %d: result %+v, want (%d,%d)", round, res, wantVM, wantPM)
		}
		if st := s.Stats(); st.DroppedCancel != 0 {
			t.Fatalf("round %d: sealed row counted as cancel-dropped (%+v)", round, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseWhileDrainingUnderWaveErrors is the shutdown-under-fire path:
// Close lands while rows — half of them carrying envs that produce
// row-level wave errors — are still queued. Every submitter must resolve
// (computed result, its row error, or ErrClosed for post-Close submits),
// the queue must drain to empty, and the counters must balance. Run under
// -race in CI.
func TestCloseWhileDrainingUnderWaveErrors(t *testing.T) {
	for round := 0; round < 10; round++ {
		m := testModel(policy.TwoStage)
		s := NewScheduler(m, Options{MaxRows: 2, MaxWait: time.Millisecond})
		const K = 24
		var wg sync.WaitGroup
		for k := 0; k < K; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				var env *sim.Env
				if k%2 == 0 {
					env = stuckEnv(t) // injected wave error: no migratable VM
				} else {
					env = testEnv(t, int64(550+k), 3, 9, 2)
				}
				res, err := s.Submit(context.Background(), policy.WaveReq{
					Kind: policy.WaveInfer, Env: env,
					Rng: rand.New(rand.NewSource(int64(k))), Opts: policy.SampleOpts{Greedy: true},
				})
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("submitter %d: %v", k, err)
					}
					return
				}
				if k%2 == 0 && !errors.Is(res.Err, policy.ErrNoMigratableVM) {
					t.Errorf("submitter %d: row error %v, want ErrNoMigratableVM", k, res.Err)
				}
				if k%2 == 1 && res.Err != nil {
					t.Errorf("submitter %d: unexpected row error %v", k, res.Err)
				}
			}(k)
		}
		// Close races the submitters: some rows resolve pre-close, the rest
		// must be drained, and stragglers get ErrClosed.
		time.Sleep(time.Duration(round%3) * 200 * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		st := s.Stats()
		if st.QueueDepth != 0 {
			t.Fatalf("round %d: queue not drained (%+v)", round, st)
		}
		if st.Submitted != st.Rows+st.DroppedCancel+st.DroppedShed {
			t.Fatalf("round %d: accounting %+v", round, st)
		}
	}
}
