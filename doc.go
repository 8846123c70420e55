// Package vmr2l is a from-scratch Go reproduction of "Towards VM
// Rescheduling Optimization Through Deep Reinforcement Learning"
// (EuroSys 2025): a cluster simulator, a Gym-style rescheduling
// environment, a pure-Go deep-RL stack, the VMR2L two-stage agent with
// sparse tree-local attention and risk-seeking evaluation, all baseline
// families from the paper's evaluation, and a benchmark harness that
// regenerates every table and figure.
//
// Start with README.md (layout, the context-aware solver contract, and the
// v2 HTTP API with its Go client). The public entry points live under cmd/
// and examples/; the library packages are in internal/.
//
// # Live-cluster serving
//
// The deployment loop of paper Fig. 5 is first-class: internal/scenario
// declares named workload scenarios (trace profile + dynamics shape +
// constraints + objective), internal/sched.Dynamics evolves a live cluster
// through Poisson arrival/exit churn on a pull-based minute clock, and the
// service hosts cluster sessions (POST /v2/clusters) whose reschedule jobs
// solve on snapshots and then validate/repair their plans against the
// drifted live state (internal/solver.ValidatePlan/RepairPlan). See
// README.md's "Live-cluster serving & scenarios".
//
// # Scaling out
//
// internal/shard is the scale-out solving layer for fleet-sized inputs
// (the hyperscale scenarios: 10k PMs, ~90k VMs): shard.Partition splits
// the PMs into balanced parts while keeping every anti-affinity service
// group inside one shard (groups larger than a shard's capacity are split
// — safe, since anti-affinity is per-PM and every VM on a shard's PMs is
// in its sub-cluster, but counted as oversized_groups); cluster.ExtractSub
// produces independent sub-clusters with id remap tables; shard.Solve
// races a portfolio of engines per shard in parallel under one shared
// deadline, keeps each shard's best anytime plan, and merges the remapped
// plans through solver.ValidatePlan + RepairPlanObjective against the full
// live cluster, so the returned plan always applies cleanly. The
// shard.Portfolio and shard.Solver wrappers register like any engine; the
// service accepts "shards"/"portfolio" on every v2 job and reports
// per-shard stats. See README.md's "Scaling out".
//
// # Performance
//
// The serving hot path is allocation-free in steady state at GOMAXPROCS=1
// (above it, each kernel fan-out allocates a fixed handful): the cluster
// keeps incremental fragment/free-resource aggregates (O(1) FragRate),
// episode resets and forks restore state in place via cluster.CopyFrom,
// sim.ExtractInto refills flat feature buffers, and inference runs on a
// tensor.Arena that skips autograd entirely, with sparse tree attention
// computed block-diagonally per PM tree. Training shares the same
// cache/register-blocked matmul kernels and recycles minibatch graph storage
// through a trainer-owned tensor.GraphPool handed to the graph's inputs (no
// process-wide state). Latency has one instrument, "go run
// ./benchmarks/e2e" (see its README.md and README.md's Benchmarks section).
//
// # Inference: one specification, one wave, one front end
//
// internal/policy carries three forwards and no more. Model.forward is the
// autograd graph PPO differentiates — the executable specification.
// Model.ServeWave is the one graph-free implementation derived from it:
// sim.FeatureBatch stacks B environments' feature rows into flat
// (ΣnPM)×F / (ΣnVM)×F buffers, every row-wise network stage runs as one
// GEMM, attention runs block-diagonally per environment
// (nn.Attention.InferSeg; tree attention concatenates per-env groups into
// one GroupedAttention pass), and one set of heads and one sampler turn the
// result into per-row actions, decisions or critic values. Attention is one
// fused row kernel (tensor.Arena.SegmentedAttention): two query rows'
// scores live in worker-local scratch, are softmaxed in place and folded
// into the output rows, so no m×n score or probability matrix is stored —
// the one probability row inference reads (the selected VM's, for the PM
// actor) is computed on request by nn.Attention.ProbRow. Query rows fan out
// over GOMAXPROCS weighted by their segment's kv length, so a wave of one
// uses every core. The kernel keeps the op-by-op operation order per output
// element; its results are Float64bits-equal to the unfused composition. B=1 is a wave of
// one: Model.Infer, Act and Probabilities, like InferBatch, ActBatch and
// ValuesBatch, are typed wrappers that build a wave on a policy.InferCtx
// (one arena, one buffer set, one pool; zero steady-state allocations at
// GOMAXPROCS=1).
// Each kernel computes every output row independently, so a row has the same
// bits alone and inside any ragged wave — the property tests compare the
// wave to the specification and each row to itself across wave
// compositions, float and int8. The third piece is the step cache
// (InferCtx.SetIncremental, below), a front end that feeds the same wave.
// Rollouts have one loop, Model.Rollout, parameterised by who computes the
// wave: policy.Agent runs ServeWave on a pooled context, serve.Agent hands
// the rows to the shared scheduler. Consumers: rl.Config.Envs lock-steps N
// training environments per wave, rl.EvalFR batches all test mappings,
// eval.Run batches the K risk-seeking trajectories,
// mcts.Solver.Prior (any mcts.ValuePrior; mcts.CriticPrior wraps a bare
// model) scores root candidates with one critic wave, and shard solves route
// a single policy engine through shard.BatchSolver so all shards share each
// wave's forward.
//
// # Batched serving
//
// internal/serve turns the wave into a continuous-batching server: one
// serve.Scheduler per model owns a pooled policy.InferCtx and a single
// runner goroutine, and every concurrent consumer — v2 jobs on the
// "vmr2l" engine, sharded rollouts, "mcts-prior" critic scoring, rl eval
// rollouts — submits one row (Submit / SubmitMany, or the typed
// Infer/Act/BatchValues) and blocks until its wave executes. Rows that
// arrive while a wave runs coalesce into the next wave, so batching
// engages exactly when the server is loaded and a lone caller pays no
// added latency (Options.MaxWait, default 0, can hold a wave open for
// stragglers; Options.MaxRows, default 128, caps wave size). Results are
// bit-identical per request to a wave of one — property-tested
// under -race across action modes and GOMAXPROCS — and cancelling a
// queued request drops only that row, never its wavemates.
// vmr2l-server wires this up behind -ckpt (knobs -wave-rows/-wave-wait;
// counters exported as vmr2l_serve_* on GET /metrics).
//
// # Int8 inference & checkpoints
//
// The inference hot path has an int8 twin: policy.Model.Quantize converts
// the large linears (embeddings, attention projections, FFNs) to
// per-output-channel symmetric int8 (tensor.QuantizeWeight), and every
// layer forward then dispatches to packed int8 GEMM kernels
// (tensor.Arena.LinearQ8) that evaluate four weights per 64-bit multiply —
// exact integer arithmetic, so the quantized forward is deterministic and
// row-independent, preserving the row independence the serving stack relies
// on. Activations, biases, norms, and the critic head
// stay float64. Checkpoints have one format, portable and self-describing
// (nn.Params.SaveCKPT / Load: "VMR2LCK1" magic + JSON manifest + raw
// little-endian tensors; dtypes f64/f32/i8), validated shape-by-shape before
// any data is read and fuzz-tested to fail cleanly on corrupt input; a
// stream without the magic is rejected with an error that says how to
// convert a legacy file. "vmr2l-server doctor" is the preflight
// (checkpoint/shapes/engines/port; non-zero exit on failure), "vmr2l-train
// -int8" and "vmr2l-eval -export" produce quantized exports. A go test in
// internal/bench gates fragmentation-rate parity of the quantized policy
// across the entire scenario registry (mean gap <= 0.02 over 3 replicas
// per scenario).
//
// # Incremental inference
//
// Rollout steps change one VM placement, so consecutive policy forwards
// share almost all of their work. The step cache makes that sharing
// explicit and bit-exact, as a front end to the wave forward: the cluster keeps a dirty journal of touched
// PM/VM ids (generation-tokened, full-dirty on bulk restores),
// sim.Features.UpdateInto re-extracts only dirty machines against cached
// raw rows — re-verifying the global min-max normalizers by fresh column
// scan, renormalizing a whole side whenever a bound moved — and
// policy.InferCtx.SetIncremental(true) keeps one environment's embeddings
// and row-wise activations across Infer calls, patches only dirty rows
// through row-sliced kernels
// (tensor.LinearRows/LinearQ8Rows/LayerNormRows/GroupedAttentionRows,
// group-diffed tree attention via nn.InferTreeRows), and hands them — with
// the cached vm_head column — to the wave's block loop, heads and sampler as
// a one-segment wave. Cache keys cover
// model identity, parameter version, cluster identity, and journal token;
// any mismatch or moved normalizer falls back to a full recompute into the
// same caches. Every forward is counted as a hit, miss, or fallback
// (InferCtx.IncrStats) — recomputes are never silent. internal/serve
// routes Env-carrying rollout requests through LRU-bounded per-session
// incremental contexts (Options.Incremental: Auto engages for the fully
// incremental extractor=none models) and exports its counters as
// vmr2l_serve_incr_* on GET /metrics. A go test in internal/bench gates
// exact-trajectory parity on every registry scenario, float and int8.
//
// # Multi-node serving & failover
//
// Sessions survive node death: every session serializes to a
// self-describing VMR2LSS1 snapshot blob (GET/PUT
// /v2/clusters/{id}/snapshot) whose restore is bit-identical under replay —
// snapshot → restore → Advance equals the uninterrupted session, RNG
// position and pending evacuations included. internal/coord (binary:
// vmr2l-coord) spreads sessions across vmr2l-server replicas by consistent
// hashing, heartbeat-probes them through an Up/Suspect/Down lifecycle,
// keeps rev-skipped snapshots of dirty sessions, and re-homes a dead
// replica's sessions onto survivors from their last snapshots with exact
// accounting (rehomed == restored + restore_failed; 503+Retry-After while
// re-homing, 410 with a reason for anything genuinely lost). Both tiers
// serve Prometheus-text GET /metrics, and "vmr2l-server doctor -coord"
// preflights the fleet. TestRunFleet (internal/bench) is the node-level
// chaos gate: it kills a replica mid-advance under concurrent jobs and pins
// the failover accounting, byte-identical re-homed state (vs both the
// pre-kill snapshot and a failure-free twin), and full job accounting. Run
// it, with the failure-scenario gate, as
// go test -run 'TestRunChaosSmall|TestRunFleet' ./internal/bench/.
package vmr2l
