// Package bench regenerates every table and figure of the paper's
// evaluation (Registry is the experiment index). Each experiment is a pure
// function from Options to a Report of printable tables; cmd/vmr2l-bench and
// the root bench_test.go are thin wrappers. Its tests also hold the chaos
// and fleet robustness gates (TestRunChaosSmall, TestRunFleet).
//
// Absolute numbers differ from the paper — the substrate is a scaled
// simulator, not ByteDance's clusters — but each report reproduces the
// paper's comparisons: which method wins, approximate factors, and where
// crossovers occur.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"vmr2l/internal/cluster"
	"vmr2l/internal/policy"
	"vmr2l/internal/rl"
	"vmr2l/internal/sim"
	"vmr2l/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness (datasets, training, sampling).
	Seed int64
	// Full uses larger datasets, MNLs and training budgets. The default
	// (quick) profile finishes each experiment in seconds on a laptop CPU.
	Full bool
}

// Table is one printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "## %s\n", t.Title)
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Report is the output of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string
}

// Fprint renders the whole report.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n\n", r.ID, r.Title)
	for i := range r.Tables {
		r.Tables[i].Fprint(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "VM arrivals and exits per minute (diurnal stream)", Fig1},
		{"fig4", "FR and inference time of MIP vs HA across MNLs", Fig4},
		{"fig5", "Achieved FR vs inference time (dynamic staleness)", Fig5},
		{"fig9", "Overall FR and latency on the Medium dataset", Fig9},
		{"fig10", "Ablation: sparse vs vanilla vs no attention", Fig10},
		{"fig11", "VM selection probability distribution", Fig11},
		{"fig12", "Risk-seeking evaluation vs trajectory count", Fig12},
		{"fig13", "Constraint handling: two-stage vs penalty vs full-mask", Fig13},
		{"fig14", "Minimize migrations under FR goals", Fig14},
		{"tab2", "FR under anti-affinity constraint levels", Table2},
		{"tab3", "Mixed objective (i): FR16 and FR64", Table3},
		{"tab4", "Mixed objective (ii): FR16 and Mem64", Table4},
		{"tab5", "Generalization to abnormal workloads", Table5},
		{"fig15", "CPU usage CDF across workload levels", Fig15},
		{"fig16", "Generalizing one agent across MNLs", Fig16},
		{"fig17", "Generalizing to different cluster sizes", Fig17},
		{"fig18", "Scalability on the Large dataset", Fig18},
		{"fig19", "Workload levels at high MNLs", Fig19},
		{"fig20", "Convergence speed: Medium vs Large clusters", Fig20},
		{"fig21", "Case study: migration-by-migration trace", Fig21},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers ----

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func ms(d float64) string  { return fmt.Sprintf("%.1fms", d) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// genMaps generates n mappings from a profile with a derived seed. Mappings
// are sampled with a fragmentation floor so quick-mode experiments retain
// rescheduling headroom (the paper's traces are collected when a VMR request
// fires, i.e. exactly when fragmentation is high).
func genMaps(profile string, n int, seed int64) []*cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	p := trace.MustProfile(profile)
	maps := make([]*cluster.Cluster, n)
	for i := range maps {
		maps[i] = p.GenerateFragmented(rng, 0.12, 12)
	}
	return maps
}

// agentSpec is the scaled-down model configuration used across experiments.
func agentSpec(action policy.ActionMode, extractor policy.ExtractorMode, seed int64) policy.Config {
	return policy.Config{
		DModel: 16, Hidden: 32, Blocks: 1,
		Extractor: extractor, Action: action, Seed: seed,
	}
}

// trainAgent trains a model for the experiment's budget, recording the test
// objective after every update via curve (may be nil).
func trainAgent(cfg policy.Config, train, test []*cluster.Cluster, envCfg sim.Config,
	updates int, seed int64, curve func(update int, testFR float64)) (*policy.Model, error) {
	m := policy.New(cfg)
	tc := rl.DefaultConfig()
	tc.RolloutSteps = 64
	tc.Epochs = 2
	tc.Minibatch = 16
	tc.LR = 1e-3
	tc.Seed = seed
	tr := rl.NewTrainer(m, tc)
	_, err := tr.Train(train, envCfg, updates, func(st rl.UpdateStats) {
		if curve != nil {
			curve(st.Update, rl.EvalFR(m, test, envCfg))
		}
	})
	return m, err
}

// meanFR averages initial FRs of mappings.
func meanInitialFR(maps []*cluster.Cluster) float64 {
	total := 0.0
	for _, c := range maps {
		total += c.FragRate(cluster.DefaultFragCores)
	}
	return total / float64(len(maps))
}

// histogram bins values into [lo,hi) buckets for probability-distribution
// figures.
type histogram struct {
	edges  []float64
	counts []int
}

func newLogHistogram() *histogram {
	return &histogram{edges: []float64{0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.01}}
}

func (h *histogram) add(v float64) {
	if h.counts == nil {
		h.counts = make([]int, len(h.edges)-1)
	}
	for i := 0; i < len(h.edges)-1; i++ {
		if v >= h.edges[i] && v < h.edges[i+1] {
			h.counts[i]++
			return
		}
	}
}

// quantiles extracts the q-quantiles of a (copied, sorted) sample.
func quantiles(vals []float64, qs ...float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(s) == 0 {
			continue
		}
		idx := int(q * float64(len(s)-1))
		out[i] = s[idx]
	}
	return out
}

// newRand builds a rand.Rand from a seed (helper for inference sampling).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
