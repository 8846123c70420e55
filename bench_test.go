// Package vmr2l_test hosts the benchmark harness that regenerates every
// table and figure of the paper (internal/bench). Each benchmark runs one
// experiment in quick mode and reports its wall time; run
//
//	go test -bench=. -benchmem -benchtime=1x
//
// to run every experiment, or cmd/vmr2l-bench for printed reports.
package vmr2l_test

import (
	"io"
	"testing"

	"vmr2l/internal/bench"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		rep.Fprint(io.Discard)
	}
}

func BenchmarkFig1ArrivalStream(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFig4MIPvsHA(b *testing.B)                { runExperiment(b, "fig4") }
func BenchmarkFig5InferenceTimeEffect(b *testing.B)    { runExperiment(b, "fig5") }
func BenchmarkFig9Overall(b *testing.B)                { runExperiment(b, "fig9") }
func BenchmarkFig10SparseAttention(b *testing.B)       { runExperiment(b, "fig10") }
func BenchmarkFig11VMProbDist(b *testing.B)            { runExperiment(b, "fig11") }
func BenchmarkFig12RiskSeeking(b *testing.B)           { runExperiment(b, "fig12") }
func BenchmarkFig13ConstraintModes(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14MNLGoals(b *testing.B)              { runExperiment(b, "fig14") }
func BenchmarkTable2Affinity(b *testing.B)             { runExperiment(b, "tab2") }
func BenchmarkTable3MixedVMType(b *testing.B)          { runExperiment(b, "tab3") }
func BenchmarkTable4MixedResource(b *testing.B)        { runExperiment(b, "tab4") }
func BenchmarkTable5AbnormalWorkloads(b *testing.B)    { runExperiment(b, "tab5") }
func BenchmarkFig15WorkloadCDF(b *testing.B)           { runExperiment(b, "fig15") }
func BenchmarkFig16MNLGeneralization(b *testing.B)     { runExperiment(b, "fig16") }
func BenchmarkFig17ClusterGeneralization(b *testing.B) { runExperiment(b, "fig17") }
func BenchmarkFig18Large(b *testing.B)                 { runExperiment(b, "fig18") }
func BenchmarkFig19WorkloadMNL(b *testing.B)           { runExperiment(b, "fig19") }
func BenchmarkFig20Convergence(b *testing.B)           { runExperiment(b, "fig20") }
func BenchmarkFig21CaseStudy(b *testing.B)             { runExperiment(b, "fig21") }
