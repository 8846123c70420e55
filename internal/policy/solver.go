package policy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"vmr2l/internal/exact"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// Agent wraps a trained model as a solver.Solver that rolls the policy out
// on an environment. With Opts.Greedy it is the deterministic deployment
// mode; with sampling it is one risk-seeking trajectory.
type Agent struct {
	Model *Model
	Opts  SampleOpts
	Seed  int64
	// Label overrides the reported name (e.g. "Decima").
	Label string
	// EarlyStop ends the rollout when the chosen action has a negative
	// immediate gain. The paper's agent always takes MNL steps (negative
	// rewards can pay off later, section 5.8); this is a deployment
	// convenience for lightly-trained models, off by default.
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
		Description:   "learned two-stage policy rollout (sparse tree-local attention, greedy or sampled)",
		Anytime:       true,
		Deterministic: a.Opts.Greedy,
	}
}

// Solve implements solver.Solver: one policy rollout, stopping at episode
// end, when no migratable VM remains, or when ctx expires — SolveBatch of one
// environment (env 0 of a batch samples from Seed itself).
func (a *Agent) Solve(ctx context.Context, env *sim.Env) error {
	return a.SolveBatch(ctx, []*sim.Env{env})
}

// SolveBatch rolls every environment in lock-step with one wave per step on a
// pooled context (Model.Rollout) — the scale-out hook: a sharded solve hands
// all shard environments to one call and amortizes a single stacked GEMM
// chain across them. Environment i samples from seed Seed+1000003·i, and its
// plan does not depend on what else shares the batch. Environments already
// done are left untouched; ctx expiry keeps every best-so-far plan.
func (a *Agent) SolveBatch(ctx context.Context, envs []*sim.Env) error {
	ic := AcquireCtx()
	defer ic.Release()
	return a.Model.Rollout(ctx, a.Model.WaveOn(ic), envs, EnvRngs(a.Seed, len(envs)), []SampleOpts{a.Opts}, a.EarlyStop)
}

// EnvRngs derives one rng per environment of a batch rollout: environment i
// samples from seed+1000003·i, so environment 0 is the single-environment
// rollout with that seed.
func EnvRngs(seed int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(seed + 1_000_003*int64(i)))
	}
	return rngs
}

// WaveFunc computes one wave of request rows, filling res: Model.ServeWave on
// a private context (Model.WaveOn), or the shared serving scheduler
// (serve.Scheduler.SubmitMany). An error means the wave did not run.
type WaveFunc func(ctx context.Context, reqs []WaveReq, res []WaveRes) ([]WaveRes, error)

// WaveOn returns the WaveFunc that runs waves directly on ic.
func (m *Model) WaveOn(ic *InferCtx) WaveFunc {
	return func(_ context.Context, reqs []WaveReq, res []WaveRes) ([]WaveRes, error) {
		return m.ServeWave(ic, reqs, res), nil
	}
}

// Rollout is the one rollout loop: it rolls every environment to completion
// in lock-step waves. Each wave asks wave for one action per still-running
// environment, then each environment steps. Environments drop out of the
// wave as they finish (ragged tail), so the batch narrows rather than
// padding; a single environment is a batch of one. Stops early when ctx
// expires — every environment keeps its best-so-far plan (the anytime
// contract). opts and rngs are per-environment (a single-element opts
// broadcasts). earlyStop is Agent.EarlyStop. Returns the first step error
// encountered (other environments still finish), or wave's error if it fails
// for any reason but ctx expiring.
func (m *Model) Rollout(ctx context.Context, wave WaveFunc, envs []*sim.Env, rngs []*rand.Rand, opts []SampleOpts, earlyStop bool) error {
	active := make([]int, 0, len(envs))
	for i, env := range envs {
		if !env.Done() {
			active = append(active, i)
		}
	}
	reqs := make([]WaveReq, 0, len(active))
	var res []WaveRes
	var firstErr error
	for len(active) > 0 && ctx.Err() == nil {
		reqs = reqs[:0]
		for _, i := range active {
			reqs = append(reqs, WaveReq{Kind: WaveInfer, Env: envs[i], Rng: rngs[i], Opts: optAt(opts, i)})
		}
		var err error
		if res, err = wave(ctx, reqs, res); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return firstErr // budget spent: every env keeps its best-so-far plan
			}
			return err
		}
		n := 0
		for k, i := range active {
			env, r := envs[i], res[k]
			if r.Err != nil {
				continue // no migratable VM: episode effectively over
			}
			var stepErr error
			if m.Cfg.Action == Penalty {
				_, _, stepErr = env.PenaltyStep(r.VM, r.PM, -5)
			} else {
				if earlyStop {
					if g, ok := sim.MoveGain(env.Cluster(), env.Objective(), r.VM, r.PM); ok && g < 0 {
						continue
					}
				}
				_, _, stepErr = env.Step(r.VM, r.PM)
			}
			if stepErr != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("policy: rollout step: %w", stepErr)
				}
				continue
			}
			if !env.Done() {
				active[n] = i
				n++
			}
		}
		active = active[:n]
	}
	return firstErr
}

// NeuPlan is the hybrid baseline (Zhu et al., SIGCOMM'21; paper section
// 5.1): the RL agent emits the first moves to prune the search space, then
// an exact solver finishes the remaining budget. Beta is the paper's relax
// factor: the number of trailing migrations left to the solver.
type NeuPlan struct {
	Model *Model
	Beta  int
	Inner exact.Solver
	Seed  int64
}

// Meta implements solver.Solver.
func (n *NeuPlan) Meta() solver.Meta {
	return solver.Meta{
		Name:          fmt.Sprintf("NeuPlan(b=%d)", n.Beta),
		Description:   "hybrid: RL policy prunes the prefix, exact search finishes the last β migrations",
		Anytime:       true,
		Deterministic: true,
	}
}

// Solve implements solver.Solver.
func (n *NeuPlan) Solve(ctx context.Context, env *sim.Env) error {
	rng := rand.New(rand.NewSource(n.Seed))
	rlSteps := env.MNL() - n.Beta
	ic := AcquireCtx()
	defer ic.Release()
	for env.StepsTaken() < rlSteps && !env.Done() && ctx.Err() == nil {
		vm, pm, err := n.Model.Infer(ic, env, rng, SampleOpts{Greedy: true})
		if err != nil {
			break
		}
		if _, _, err := env.Step(vm, pm); err != nil {
			return fmt.Errorf("policy: neuplan rl step: %w", err)
		}
	}
	if env.Done() || ctx.Err() != nil {
		return nil
	}
	plan := n.Inner.Search(ctx, env.Cluster(), env.Objective(), env.MNL()-env.StepsTaken())
	for _, a := range plan {
		if env.Done() {
			break
		}
		if _, _, err := env.Step(a.VM, a.PM); err != nil {
			return fmt.Errorf("policy: neuplan exact step: %w", err)
		}
	}
	return nil
}
