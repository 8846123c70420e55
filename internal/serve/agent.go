package serve

import (
	"context"

	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// Agent is the scheduler-backed counterpart of policy.Agent: a solver.Solver
// whose every forward pass goes through the shared wave scheduler, so
// concurrent jobs, portfolio members, and shard rollouts coalesce into
// common GEMM waves. Per environment the produced plan is bit-identical to
// policy.Agent with the same seed — the scheduler changes who shares the
// forward, never the answer.
type Agent struct {
	Sched *Scheduler
	Opts  policy.SampleOpts
	Seed  int64
	// Label overrides the reported name (e.g. "Decima").
	Label string
	// EarlyStop mirrors policy.Agent.EarlyStop.
	EarlyStop bool
}

// Meta implements solver.Solver.
func (a *Agent) Meta() solver.Meta {
	name := "VMR2L"
	if a.Label != "" {
		name = a.Label
	}
	return solver.Meta{
		Name:          name,
		Description:   "learned two-stage policy rollout through the shared continuous-batching scheduler",
		Anytime:       true,
		Deterministic: a.Opts.Greedy,
	}
}

// Solve implements solver.Solver: one policy rollout whose per-step
// inference rides shared waves — SolveBatch of one environment.
func (a *Agent) Solve(ctx context.Context, env *sim.Env) error {
	return a.SolveBatch(ctx, []*sim.Env{env})
}

// SolveBatch rolls every environment in lock-step through the one rollout
// loop (policy.Model.Rollout) with the scheduler computing the waves: each
// step's active rows are submitted in one shot so they share scheduler waves
// (and can coalesce further with unrelated traffic). Per environment the plan
// is bit-identical to policy.Agent.SolveBatch — same derived seeds
// Seed+1000003·i, same rng consumption order. Implements the
// shard.BatchSolver contract, so a sharded solve registered with this agent
// batches across shards through the scheduler. A scheduler closed mid-solve
// is the returned error.
func (a *Agent) SolveBatch(ctx context.Context, envs []*sim.Env) error {
	return a.Sched.Model().Rollout(ctx, a.Sched.SubmitMany, envs,
		policy.EnvRngs(a.Seed, len(envs)), []policy.SampleOpts{a.Opts}, a.EarlyStop)
}
