package serve

import (
	"context"
	"sync"
	"testing"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

func plansEqual(t *testing.T, label string, want, got []sim.Migration) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d migrations != %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: migration %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestAgentSolveMatchesPolicyAgent pins the scheduler-backed solver against
// the direct policy.Agent: identical plan, same seed, per action mode.
func TestAgentSolveMatchesPolicyAgent(t *testing.T) {
	for _, mode := range []policy.ActionMode{policy.TwoStage, policy.Penalty} {
		m := testModel(mode)
		s := NewScheduler(m, Options{})
		direct := &policy.Agent{Model: m, Seed: 7}
		envA := testEnv(t, 820, 4, 12, 5)
		if err := direct.Solve(context.Background(), envA); err != nil {
			t.Fatal(err)
		}
		served := &Agent{Sched: s, Seed: 7}
		envB := testEnv(t, 820, 4, 12, 5)
		if err := served.Solve(context.Background(), envB); err != nil {
			t.Fatal(err)
		}
		plansEqual(t, string(rune(mode))+" solve", envA.Plan(), envB.Plan())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAgentSolveBatchMatchesPolicyAgent pins the lock-step batch path and
// the shard.BatchSolver contract: the scheduler-backed SolveBatch produces
// the same per-env plans as policy.Agent.SolveBatch, even when several
// SolveBatch calls share the scheduler concurrently.
func TestAgentSolveBatchMatchesPolicyAgent(t *testing.T) {
	m := testModel(policy.TwoStage)
	const B = 4
	mkEnvs := func() []*sim.Env {
		envs := make([]*sim.Env, B)
		for b := range envs {
			envs[b] = testEnv(t, int64(840+b), 3+b%2, 9+2*b, 3+b)
		}
		return envs
	}
	direct := &policy.Agent{Model: m, Seed: 11}
	want := mkEnvs()
	if err := direct.SolveBatch(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(m, Options{MaxRows: 16})
	defer s.Close()
	// Two concurrent SolveBatch calls coalesce into shared waves; each must
	// still reproduce the direct plans exactly.
	var wg sync.WaitGroup
	got := make([][]*sim.Env, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			served := &Agent{Sched: s, Seed: 11}
			got[c] = mkEnvs()
			if err := served.SolveBatch(context.Background(), got[c]); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < 2; c++ {
		for b := 0; b < B; b++ {
			plansEqual(t, "solvebatch", want[b].Plan(), got[c][b].Plan())
		}
	}
}

// TestBatchValuesMatchesValuesBatch pins the scheduler's critic-prior path
// against Model.ValuesBatch.
func TestBatchValuesMatchesValuesBatch(t *testing.T) {
	m := testModel(policy.TwoStage)
	states := make([]*cluster.Cluster, 5)
	for i := range states {
		states[i] = testEnv(t, int64(860+i), 3+i%2, 8+i, 3).Cluster()
	}
	bc := policy.NewInferCtx()
	want := m.ValuesBatch(bc, states, nil)
	s := NewScheduler(m, Options{})
	defer s.Close()
	got, err := s.BatchValues(context.Background(), states, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d values != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: %v != %v", i, got[i], want[i])
		}
	}
}

// TestEvalFRWithSchedulerAgent pins the rl evaluation hook: EvalFRWith over
// the scheduler-backed agent returns exactly what the direct EvalFR does.
func TestEvalFRWithSchedulerAgent(t *testing.T) {
	m := testModel(policy.TwoStage)
	maps := make([]*cluster.Cluster, 3)
	for i := range maps {
		maps[i] = testEnv(t, int64(880+i), 3, 9+i, 4).Cluster()
	}
	envCfg := sim.DefaultConfig(4)
	want := rl.EvalFR(m, maps, envCfg)
	s := NewScheduler(m, Options{})
	defer s.Close()
	got := rl.EvalFRWith(&Agent{Sched: s, Opts: policy.SampleOpts{Greedy: true}}, maps, envCfg)
	if got != want {
		t.Fatalf("scheduler EvalFR %v != direct %v", got, want)
	}
}

// The compile-time contracts the rewired consumers rely on.
var (
	_ solver.Solver = (*Agent)(nil)
	_ interface {
		SolveBatch(ctx context.Context, envs []*sim.Env) error
	} = (*Agent)(nil)
)
