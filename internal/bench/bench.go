// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 4): dataset characteristics
// (Table 4), the parameter grid (Table 5), the strategy study (Figures
// 4a–4d) and the baseline comparison (Figures 5a–5d).
//
// Each experiment produces a Table whose rows are the same series the paper
// plots. Absolute runtimes differ from the authors' Python/Xeon setup by
// construction; the reproduction target is the shape of each curve (see
// EXPERIMENTS.md). Row counts scale with Config.Scale so the full suite
// runs in minutes.
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/metrics"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
)

// Config holds the experiment parameters, mirroring Table 5's grid with
// defaults usable on a laptop.
type Config struct {
	// Scale multiplies every |R| sweep value; 1.0 reproduces the paper's
	// sizes. The default 0.1 keeps the full suite in the minutes range.
	Scale float64
	// Seed drives dataset generation, constraint sampling and algorithm
	// randomness; equal seeds reproduce equal tables.
	Seed uint64
	// K is the default privacy parameter (Table 5 default: 10).
	K int
	// NumConstraints is the default |Σ| (Table 5 default: 8).
	NumConstraints int
	// Baseline selects the rest-row partitioner for DIVA runs: "" uses the
	// engine default (parallel Mondrian); "k-member" uses the greedy
	// k-member clustering, the paper's Anonymize step.
	Baseline string
	// MaxSteps caps the coloring search per run (0 = package default).
	MaxSteps int
	// Progress, when non-nil, receives one line per measured point.
	Progress io.Writer
}

// WithDefaults fills zero fields with the harness defaults.
func (c Config) WithDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 20210323 // EDBT 2021 opening day
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.NumConstraints == 0 {
		c.NumConstraints = 8
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

func (c Config) scaled(rows int) int {
	n := int(math.Round(float64(rows) * c.Scale))
	if n < 1000 {
		n = 1000
	}
	if n > rows {
		n = rows
	}
	return n
}

// Row is one x-axis point of a result table.
type Row struct {
	X      string    `json:"x"`
	Values []float64 `json:"values"`
}

// Table is one reproduced table or figure.
type Table struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	XLabel  string   `json:"x_label"`
	YLabel  string   `json:"y_label"`
	Columns []string `json:"columns"`
	Rows    []Row    `json:"rows"`
	// Notes carries per-run context (scale, dataset sizes) recorded into
	// EXPERIMENTS.md.
	Notes []string `json:"notes,omitempty"`
	// PhaseSeconds, when set by the caller, is the engine-phase wall-time
	// breakdown accumulated while the experiment ran (from the process-wide
	// metrics registry), keyed by phase name.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// PhaseMetrics converts the table's PhaseSeconds into the RunMetrics of a
// run-history record: one PhaseTiming per known phase in execution order,
// Total their sum, and Accuracy −1 (a table publishes no relation). It
// returns nil when the table carries no known phase.
func (t *Table) PhaseMetrics() *trace.RunMetrics {
	m := &trace.RunMetrics{Accuracy: -1}
	for _, ph := range trace.Phases() {
		sec, ok := t.PhaseSeconds[string(ph)]
		if !ok {
			continue
		}
		d := time.Duration(sec * float64(time.Second))
		m.Phases = append(m.Phases, trace.PhaseTiming{Phase: ph, Duration: d})
		m.Total += d
	}
	if len(m.Phases) == 0 {
		return nil
	}
	return m
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	header := append([]string{t.XLabel}, t.Columns...)
	widths := make([]int, len(header))
	cells := make([][]string, 0, len(t.Rows)+1)
	cells = append(cells, header)
	for _, r := range t.Rows {
		row := make([]string, 0, len(header))
		row = append(row, r.X)
		for _, v := range r.Values {
			row = append(row, formatValue(v, t.YLabel))
		}
		cells = append(cells, row)
	}
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, row := range cells {
		var b strings.Builder
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	fmt.Fprintln(w)
}

// CSV renders the table as CSV for plotting.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintf(w, "%s,%s\n", t.XLabel, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		vals := make([]string, len(r.Values))
		for i, v := range r.Values {
			vals[i] = fmt.Sprintf("%g", v)
		}
		fmt.Fprintf(w, "%s,%s\n", r.X, strings.Join(vals, ","))
	}
}

func formatValue(v float64, ylabel string) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch {
	case strings.Contains(ylabel, "accuracy"):
		return fmt.Sprintf("%.4f", v)
	case strings.Contains(ylabel, "seconds"):
		return fmt.Sprintf("%.3f", v)
	default:
		if v == math.Trunc(v) {
			return fmt.Sprintf("%.0f", v)
		}
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment is a runnable reproduction of one paper table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
}

// Experiments returns the registry of all reproductions, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table4", Title: "Dataset characteristics", Run: Table4},
		{ID: "table5", Title: "Parameter values", Run: Table5},
		{ID: "fig4a", Title: "Runtime vs |Σ| (Census)", Run: Fig4a},
		{ID: "fig4b", Title: "Accuracy vs |Σ| (Census)", Run: Fig4b},
		{ID: "fig4c", Title: "Accuracy vs conflict rate (Pantheon)", Run: Fig4c},
		{ID: "fig4d", Title: "Accuracy vs distribution (Pop-Syn)", Run: Fig4d},
		{ID: "fig5a", Title: "Accuracy vs k (Credit)", Run: Fig5a},
		{ID: "fig5b", Title: "Runtime vs k (Credit)", Run: Fig5b},
		{ID: "fig5c", Title: "Accuracy vs |R| (Census)", Run: Fig5c},
		{ID: "fig5d", Title: "Runtime vs |R| (Census)", Run: Fig5d},
		{ID: "ablation-cap", Title: "DIVA vs candidate budget", Run: AblationCandidateCap},
		{ID: "ablation-parallel", Title: "Sequential vs portfolio coloring", Run: AblationParallel},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// strategies are the DIVA variants of the strategy study.
var strategies = []search.Strategy{search.MinChoice, search.MaxFanOut, search.Basic}

func strategyColumns() []string {
	cols := make([]string, len(strategies))
	for i, s := range strategies {
		cols[i] = s.String()
	}
	return cols
}

// runDIVA measures one DIVA run, returning the output accuracy and elapsed
// wall time. Failed runs (no diverse clustering within budget) return NaN
// accuracy.
func runDIVA(rel *relation.Relation, sigma constraint.Set, k int, strat search.Strategy, cfg Config, seed uint64) (acc, secs float64) {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef12345))
	o := core.Options{
		K:        k,
		Strategy: strat,
		Rng:      rng,
		Cluster:  cluster.Options{},
		MaxSteps: cfg.MaxSteps,
	}
	// Nil Anonymizer takes the engine default (parallel Mondrian).
	if cfg.Baseline == "k-member" {
		o.Anonymizer = &anon.KMember{Rng: rng}
	}
	start := time.Now()
	res, err := core.Anonymize(context.Background(), rel, sigma, o)
	secs = time.Since(start).Seconds()
	if err != nil {
		cfg.logf("    %s failed: %v", strat, err)
		return math.NaN(), secs
	}
	return metrics.Accuracy(res.Output), secs
}

// runBaseline measures one baseline k-anonymization run: a DIVA run with
// Σ = ∅, whose output is p's rendering of all of rel.
func runBaseline(rel *relation.Relation, p anon.Partitioner, k int, cfg Config) (acc, secs float64) {
	start := time.Now()
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: k, Anonymizer: p})
	secs = time.Since(start).Seconds()
	if err != nil {
		cfg.logf("    %s failed: %v", p.Name(), err)
		return math.NaN(), secs
	}
	return metrics.Accuracy(res.Output), secs
}

// censusRelation generates the census profile at the given sample size,
// with the vocabulary scaling of a real subsample (dataset.CensusSized).
func censusRelation(cfg Config, rows int) *relation.Relation {
	return dataset.CensusSized(rows).Generate(rows, cfg.Seed)
}

// proportionalSigma draws a proportional constraint set over rel. The
// comparison experiments use no upper-bound pressure (UpperFrac 1): the
// paper's baseline study isolates the cost of guaranteeing representation
// floors, and tight upper bounds would instead measure the Integrate
// repair (exercised by the ablation experiment and unit tests).
func proportionalSigma(rel *relation.Relation, n, k int, seed uint64) (constraint.Set, error) {
	rng := rand.New(rand.NewPCG(seed^0x51a3, seed))
	return constraint.Proportional(rel, constraint.GenOptions{
		Count:     n,
		K:         k,
		Rng:       rng,
		UpperFrac: 1,
	})
}

// sortedKeys is a small helper for deterministic map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
