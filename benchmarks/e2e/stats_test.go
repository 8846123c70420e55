package main

import (
	"math"
	"testing"

	"vmr2l/internal/service"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose; must not be reordered
	for _, tc := range []struct{ p, want float64 }{
		{50, 30}, {90, 50}, {100, 50}, {20, 10}, {21, 20}, {1, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("even-count median by nearest rank = %v, want the lower middle 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty sample must give NaN")
	}
}

func TestMedianOfPasses(t *testing.T) {
	if got := median([]float64{3.5, 1.0, 2.0}); got != 2.0 {
		t.Errorf("median of three passes = %v, want the middle pass 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty sample must give NaN")
	}
}

func TestDigestSeesEveryField(t *testing.T) {
	base := [][]service.PlanMigration{
		{{VM: 1, FromPM: 2, ToPM: 3}, {VM: 4, FromPM: 5, ToPM: 6}},
		{},
		{{VM: 7, FromPM: 8, ToPM: 9, Swap: true}},
	}
	ref := digestPlans(base)
	if ref != digestPlans(base) {
		t.Fatal("digest is not deterministic")
	}
	mutations := map[string]func(p [][]service.PlanMigration){
		"vm":       func(p [][]service.PlanMigration) { p[0][0].VM = 9 },
		"from":     func(p [][]service.PlanMigration) { p[0][1].FromPM = 0 },
		"to":       func(p [][]service.PlanMigration) { p[2][0].ToPM = 0 },
		"swap":     func(p [][]service.PlanMigration) { p[2][0].Swap = false },
		"forced":   func(p [][]service.PlanMigration) { p[0][0].Forced = true },
		"reorder":  func(p [][]service.PlanMigration) { p[0][0], p[0][1] = p[0][1], p[0][0] },
		"boundary": func(p [][]service.PlanMigration) { p[1] = p[0][1:]; p[0] = p[0][:1] },
	}
	for name, mutate := range mutations {
		cp := make([][]service.PlanMigration, len(base))
		for i := range base {
			cp[i] = append([]service.PlanMigration(nil), base[i]...)
		}
		mutate(cp)
		if digestPlans(cp) == ref {
			t.Errorf("digest did not change when %s changed", name)
		}
	}
}

func TestJobsForKeepsPassesEqual(t *testing.T) {
	for _, w := range workloads {
		if got := w.jobsFor(nominalSeconds); got != w.jobs {
			t.Errorf("%s: %d jobs at the nominal run length, want %d", w.name, got, w.jobs)
		}
		for _, s := range []int{1, 7, 20, 33, 60} {
			if n := w.jobsFor(s); n <= 0 || n%(passes*w.clients) != 0 {
				t.Errorf("%s: %d jobs at %d s is not a positive multiple of %d", w.name, n, s, passes*w.clients)
			}
		}
	}
}
