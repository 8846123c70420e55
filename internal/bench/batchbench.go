package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"vmr2l/internal/policy"
)

// The batch sweep compares rollout collection one environment at a time (one
// Model.Infer — a wave of one — per environment per step) against one wave
// for all of them (one Model.InferBatch per step) across batch sizes, writing
// BENCH_batch.json. Both sides run the same wave forward, so the "seq"
// column is B=1 waves, not a separate implementation: the sweep prices what
// stacking rows into one wave buys. Run via
//
//	vmr2l-bench -batch          # sweep -> BENCH_batch.json
//	vmr2l-bench -batch -batch-check
//
// The check enforces the batching acceptance bar — ≥2x steps/sec at 8
// environments — only when GOMAXPROCS ≥ 4: the stacked GEMMs fan out across
// cores above the kernels' parallel threshold, which is where most of the
// wall-clock win lives; a single-core run records the (smaller) overhead-
// amortization win without failing the gate.

// BatchResult is one batch size's measurement.
type BatchResult struct {
	Envs           int     `json:"envs"`
	SeqNsPerStep   float64 `json:"seq_ns_per_step"`
	BatchNsPerStep float64 `json:"batch_ns_per_step"`
	// Speedup is steps/sec of one wave per step over B=1 waves per env.
	Speedup float64 `json:"speedup"`
	// BatchAllocsPerWave must stay 0: the batched wave is allocation-free in
	// steady state.
	BatchAllocsPerWave int64 `json:"batch_allocs_per_wave"`
}

// BatchReport is the JSON artifact of one sweep.
type BatchReport struct {
	GoVersion  string        `json:"go_version"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Timestamp  string        `json:"timestamp"`
	Results    []BatchResult `json:"results"`
}

// Speedup returns the recorded speedup at the given batch size (0 when the
// size was not swept).
func (r BatchReport) Speedup(envs int) float64 {
	for _, res := range r.Results {
		if res.Envs == envs {
			return res.Speedup
		}
	}
	return 0
}

// batchSweepSizes is the swept batch-size grid.
var batchSweepSizes = []int{1, 2, 4, 8}

// RunBatchBench measures the sweep. progress (may be nil) is called before
// each measurement.
func RunBatchBench(progress func(name string)) BatchReport {
	rep := BatchReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, n := range batchSweepSizes {
		if progress != nil {
			progress(fmt.Sprintf("seq x%d", n))
		}
		seq := testing.Benchmark(func(b *testing.B) {
			envs, rngs, opts, model := batchFixture(n)
			ic := policy.NewInferCtx()
			step := func() {
				for i, env := range envs {
					vm, pm, err := model.Infer(ic, env, rngs[i], opts[i])
					if err != nil {
						continue
					}
					if _, _, err := env.Step(vm, pm); err != nil {
						b.Fatal(err)
					}
				}
			}
			step() // warm buffers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&511 == 511 {
					for _, env := range envs {
						env.Reset() // bound plan growth (see benchStep)
					}
				}
				step()
			}
		})
		if progress != nil {
			progress(fmt.Sprintf("batch x%d", n))
		}
		var allocs int64
		bat := testing.Benchmark(func(b *testing.B) {
			envs, rngs, opts, model := batchFixture(n)
			bc := policy.NewBatchInferCtx()
			var acts []policy.BatchAction
			wave := func() {
				acts = model.InferBatch(bc, envs, rngs, opts, acts)
				for k, env := range envs {
					if acts[k].Err != nil {
						continue
					}
					if _, _, err := env.Step(acts[k].VM, acts[k].PM); err != nil {
						b.Fatal(err)
					}
				}
			}
			wave() // warm buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i&511 == 511 {
					for _, env := range envs {
						env.Reset() // bound plan growth (see benchStep)
					}
				}
				wave()
			}
		})
		allocs = bat.AllocsPerOp()
		seqNs := float64(seq.T.Nanoseconds()) / float64(seq.N) / float64(n)
		batNs := float64(bat.T.Nanoseconds()) / float64(bat.N) / float64(n)
		speedup := 0.0
		if batNs > 0 {
			speedup = seqNs / batNs
		}
		rep.Results = append(rep.Results, BatchResult{
			Envs: n, SeqNsPerStep: seqNs, BatchNsPerStep: batNs,
			Speedup: speedup, BatchAllocsPerWave: allocs,
		})
	}
	return rep
}

// BatchRegressions applies the acceptance gate to a sweep: the batched wave
// must stay allocation-free, and with GOMAXPROCS ≥ 4 the 8-env batch must
// reach ≥2x the per-step path's steps/sec. An empty result passes.
func BatchRegressions(rep BatchReport) []string {
	var regs []string
	for _, r := range rep.Results {
		if r.BatchAllocsPerWave > 0 {
			regs = append(regs, fmt.Sprintf("batch x%d: %d allocs/wave (want 0)", r.Envs, r.BatchAllocsPerWave))
		}
	}
	if rep.GoMaxProcs >= 4 {
		if s := rep.Speedup(8); s < 2.0 {
			regs = append(regs, fmt.Sprintf("batch x8 speedup %.2fx < 2x (GOMAXPROCS=%d)", s, rep.GoMaxProcs))
		}
	}
	return regs
}

// BatchGateSkips reports, at check time, the gate bars this run did not
// apply — on a single-core runner the x8 speedup bar is off (no GEMM
// fan-out to measure), and a green check must say so rather than read as a
// passed speedup gate.
func BatchGateSkips(rep BatchReport) []string {
	if rep.GoMaxProcs < 4 {
		return []string{fmt.Sprintf(
			"batch x8 speedup gate skipped (single core: GOMAXPROCS=%d < 4, allocation gate only); "+
				"the single-core forward speedup is the int8 quantized path, gated separately in BENCH_quant.json (vmr2l-bench -quant-check)", rep.GoMaxProcs)}
	}
	return nil
}

// WriteBatchArtifact writes the sweep to path.
func WriteBatchArtifact(path string, rep BatchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBatchArtifact reads a previously written sweep.
func LoadBatchArtifact(path string) (BatchReport, error) {
	var rep BatchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return rep, nil
}

// Fprint renders the sweep as an aligned table.
func (r BatchReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "batch-vs-sequential rollout sweep (%s, GOMAXPROCS=%d); seq = one B=1 wave per env per step\n", r.GoVersion, r.GoMaxProcs)
	fmt.Fprintf(w, "%-6s %16s %16s %9s %12s\n", "envs", "seq ns/step", "batch ns/step", "speedup", "allocs/wave")
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-6d %16.1f %16.1f %8.2fx %12d\n",
			res.Envs, res.SeqNsPerStep, res.BatchNsPerStep, res.Speedup, res.BatchAllocsPerWave)
	}
}
