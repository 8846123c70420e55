// Package mcts implements the search-based baseline of the paper's
// evaluation: Monte-Carlo tree search with candidate pruning in the style of
// DDTS (Zhu et al., CIKM'21). Traditional search needs many rollouts at
// inference time to perform well, which is what makes it miss the paper's
// five-second latency budget at scale.
package mcts

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/sim"
	"vmr2l/internal/solver"
)

// Solver is a receding-horizon UCT searcher: at every environment step it
// searches from the current state, executes the most-visited root action,
// and repeats.
type Solver struct {
	// Iterations is the UCT simulation budget per environment step.
	Iterations int
	// Width prunes each node's children to the top-Width candidates by
	// immediate gain (the DDTS-style neural pruning is approximated by
	// gain-ranked pruning; see DESIGN.md).
	Width int
	// RolloutDepth caps greedy rollout length (0 = until episode end).
	RolloutDepth int
	// C is the UCB exploration constant.
	C float64
	// Seed drives rollout tie-breaking.
	Seed int64
	// Deadline bounds total wall time across all steps (0 = unbounded).
	Deadline time.Duration
	// Prior, when set, scores every root candidate's post-action state with
	// the policy network's critic in ONE batched forward pass per
	// environment step — the DDTS-style neural candidate scoring the
	// gain-ranked pruning approximates. Each root child starts with a
	// virtual visit whose return is its immediate gain plus the critic's
	// estimate of the remaining return, so UCT's first sweeps favor states
	// the value network likes instead of exploring the pruned candidates
	// uniformly. Batching the expansion keeps the network cost one stacked
	// GEMM chain per step rather than Width forwards.
	//
	// CriticPrior wraps a bare model; the serving scheduler
	// (internal/serve) satisfies the interface directly, in which case the
	// prior's critic batch coalesces with every other consumer's wave.
	Prior ValuePrior
}

// ValuePrior scores cluster states with a learned critic in one batched
// forward. Implemented by CriticPrior (direct model access) and by the
// continuous-batching scheduler in internal/serve (shared waves).
type ValuePrior interface {
	BatchValues(ctx context.Context, states []*cluster.Cluster, dst []float64) ([]float64, error)
}

// CriticPrior adapts a bare policy model to the ValuePrior contract with a
// pooled batch context per call.
type CriticPrior struct {
	M *policy.Model
}

// BatchValues implements ValuePrior via policy.Model.ValuesBatch.
func (c CriticPrior) BatchValues(_ context.Context, states []*cluster.Cluster, dst []float64) ([]float64, error) {
	ic := policy.AcquireCtx()
	defer ic.Release()
	return c.M.ValuesBatch(ic, states, dst), nil
}

// Meta implements solver.Solver.
func (s *Solver) Meta() solver.Meta {
	return solver.Meta{
		Name:          fmt.Sprintf("MCTS(%d)", s.iterations()),
		Description:   "receding-horizon UCT search with gain-ranked candidate pruning (DDTS-style)",
		Anytime:       true,
		Deterministic: false,
	}
}

func (s *Solver) iterations() int {
	if s.Iterations < 1 {
		return 64
	}
	return s.Iterations
}

func (s *Solver) width() int {
	if s.Width < 1 {
		return 8
	}
	return s.Width
}

func (s *Solver) c() float64 {
	if s.C <= 0 {
		return 0.7
	}
	return s.C
}

type node struct {
	action   sim.Action
	children []*node
	visits   int
	total    float64 // cumulative return
	expanded bool
}

func (n *node) ucb(parentVisits int, c float64) float64 {
	if n.visits == 0 {
		return math.Inf(1)
	}
	return n.total/float64(n.visits) + c*math.Sqrt(math.Log(float64(parentVisits))/float64(n.visits))
}

// greedyRollout plays the best immediate-gain action while one with positive
// gain exists, up to depth moves, returning the cumulative gain. Uses the
// allocation-free sim.BestAction scan.
func greedyRollout(c *cluster.Cluster, obj sim.Objective, depth int) float64 {
	total := 0.0
	for d := 0; depth == 0 || d < depth; d++ {
		act, ok := sim.BestAction(c, obj)
		if !ok || act.Gain <= 1e-12 {
			break
		}
		if err := c.Migrate(act.VM, act.PM, cluster.DefaultFragCores); err != nil {
			break
		}
		total += act.Gain
	}
	return total
}

// simulate runs one UCT iteration from the root state, returning the sampled
// return. state is mutated and must be a scratch clone.
func (s *Solver) simulate(root *node, state *cluster.Cluster, obj sim.Objective, depth int, rng *rand.Rand) float64 {
	if depth == 0 {
		return 0
	}
	if !root.expanded {
		root.expanded = true
		for _, a := range sim.TopActions(state, obj, s.width()) {
			root.children = append(root.children, &node{action: a})
		}
	}
	if len(root.children) == 0 {
		return 0
	}
	// Selection.
	best, bestScore := root.children[0], math.Inf(-1)
	for _, ch := range root.children {
		score := ch.ucb(root.visits+1, s.c())
		if score > bestScore {
			best, bestScore = ch, score
		}
	}
	if err := state.Migrate(best.action.VM, best.action.PM, cluster.DefaultFragCores); err != nil {
		// Stale candidate (should not happen on a fresh clone); treat as 0.
		return 0
	}
	var ret float64
	if best.visits == 0 {
		// Expansion + rollout.
		rd := s.RolloutDepth
		if rd == 0 || rd > depth-1 {
			rd = depth - 1
		}
		ret = best.action.Gain + greedyRollout(state, obj, rd)
	} else {
		ret = best.action.Gain + s.simulate(best, state, obj, depth-1, rng)
	}
	best.visits++
	best.total += ret
	root.visits++
	return ret
}

// Solve implements solver.Solver: UCT iterations stop as soon as ctx (or the
// legacy Deadline field) expires; the most-visited action found so far at the
// current root is still executed, so every completed environment step stays.
func (s *Solver) Solve(ctx context.Context, env *sim.Env) error {
	rng := rand.New(rand.NewSource(s.Seed))
	var deadline time.Time
	if s.Deadline > 0 {
		deadline = time.Now().Add(s.Deadline)
	}
	// One scratch cluster for all simulations: each UCT iteration restores
	// it in place (CopyFrom) instead of allocating a fresh deep copy — the
	// dominant allocation of search-based inference at scale.
	var scratch *cluster.Cluster
	// Value-prior scratch: one cluster copy per candidate child, reused
	// across every environment step.
	var childStates []*cluster.Cluster
	var childVals []float64
	for !env.Done() {
		if ctx.Err() != nil {
			return nil // budget spent: best-so-far plan is already in env
		}
		remaining := env.MNL() - env.StepsTaken()
		root := &node{}
		if s.Prior != nil {
			root.expanded = true
			cands := sim.TopActions(env.Cluster(), env.Objective(), s.width())
			for len(childStates) < len(cands) {
				childStates = append(childStates, env.Cluster().Clone())
			}
			kept := cands[:0]
			for _, a := range cands {
				st := childStates[len(kept)]
				st.CopyFrom(env.Cluster())
				if st.Migrate(a.VM, a.PM, cluster.DefaultFragCores) != nil {
					continue // stale candidate: drop rather than mis-score
				}
				kept = append(kept, a)
			}
			// One batched forward values every candidate's child state.
			vals, err := s.Prior.BatchValues(ctx, childStates[:len(kept)], childVals)
			if err != nil {
				// Prior unavailable (cancelled ctx, scheduler closing):
				// fall back to plain UCT from an unexpanded root.
				root.expanded = false
			} else {
				childVals = vals
				for j, a := range kept {
					root.children = append(root.children, &node{
						action: a, visits: 1, total: a.Gain + childVals[j],
					})
					root.visits++
				}
			}
		}
		for it := 0; it < s.iterations(); it++ {
			if ctx.Err() != nil {
				break
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				break
			}
			if scratch == nil {
				scratch = env.Cluster().Clone()
			} else {
				scratch.CopyFrom(env.Cluster())
			}
			s.simulate(root, scratch, env.Objective(), remaining, rng)
		}
		if len(root.children) == 0 {
			return nil
		}
		best := root.children[0]
		for _, ch := range root.children {
			if ch.visits > best.visits {
				best = ch
			}
		}
		// Stop when search believes no improvement remains.
		if best.visits == 0 || (best.total/float64(max(best.visits, 1))) <= 1e-12 && best.action.Gain <= 1e-12 {
			return nil
		}
		if _, _, err := env.Step(best.action.VM, best.action.PM); err != nil {
			return fmt.Errorf("mcts: step: %w", err)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
	}
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
