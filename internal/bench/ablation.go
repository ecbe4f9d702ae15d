package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/metrics"
	"diva/internal/search"
)

// The ablation experiments quantify the repository's own design choices —
// knobs the paper leaves implicit. They are not paper figures; EXPERIMENTS.md
// records them alongside the reproductions.

// AblationCandidateCap measures DIVA accuracy and runtime as the
// per-constraint candidate-clustering budget varies: the cap is the
// polynomial bound that Section 3.3's complexity argument relies on.
func AblationCandidateCap(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	rows := cfg.scaled(60000)
	rel := censusRelation(cfg, rows)
	sigma, err := proportionalSigma(rel, cfg.NumConstraints, cfg.K, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablation-cap", Title: "DIVA vs candidate-clustering budget (Census)",
		XLabel: "MaxCandidates", YLabel: "accuracy / seconds",
		Columns: []string{"accuracy", "seconds", "steps"},
		Notes:   []string{fmt.Sprintf("census profile, |R|=%d, |Sigma|=%d, k=%d, MaxFanOut", rows, cfg.NumConstraints, cfg.K)},
	}
	for _, cap := range []int{4, 8, 16, 64, 256} {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(cap)))
		start := time.Now()
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:          cfg.K,
			Strategy:   search.MaxFanOut,
			Rng:        rng,
			Cluster:    cluster.Options{MaxCandidates: cap},
			Anonymizer: &anon.KMember{Rng: rng},
		})
		secs := time.Since(start).Seconds()
		acc, steps := math.NaN(), 0.0
		if err == nil {
			acc = metrics.Accuracy(res.Output)
			steps = float64(res.Stats.Steps)
		}
		cfg.logf("ablation-cap %d: acc=%.4f %.2fs", cap, acc, secs)
		t.Rows = append(t.Rows, Row{X: fmt.Sprint(cap), Values: []float64{acc, secs, steps}})
	}
	return t, nil
}

// AblationParallel measures the portfolio coloring (the paper's future-work
// parallelization) against the sequential strategies on a high-conflict
// instance, where strategy choice matters most.
func AblationParallel(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	rel := dataset.PantheonConflict(fig4cCoupling).Generate(dataset.PantheonRows, cfg.Seed)
	sigma, err := pairedConflictSigma(rel, cfg.NumConstraints, cfg.K, 1.0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablation-parallel", Title: "Sequential strategies vs portfolio coloring (Pantheon, cf=1)",
		XLabel: "search", YLabel: "accuracy / seconds",
		Columns: []string{"accuracy", "seconds"},
		Notes:   []string{fmt.Sprintf("pantheon-conflict profile, |R|=%d, |Sigma|=%d, k=%d", rel.Len(), cfg.NumConstraints, cfg.K)},
	}
	run := func(label string, parallel int, strat search.Strategy) {
		rng := rand.New(rand.NewPCG(cfg.Seed, uint64(parallel)+uint64(strat)))
		start := time.Now()
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:          cfg.K,
			Strategy:   strat,
			Rng:        rng,
			Parallel:   parallel,
			Anonymizer: &anon.KMember{Rng: rng},
		})
		secs := time.Since(start).Seconds()
		acc := math.NaN()
		if err == nil {
			acc = metrics.Accuracy(res.Output)
		}
		cfg.logf("ablation-parallel %s: acc=%.4f %.2fs", label, acc, secs)
		t.Rows = append(t.Rows, Row{X: label, Values: []float64{acc, secs}})
	}
	run("MinChoice", 0, search.MinChoice)
	run("MaxFanOut", 0, search.MaxFanOut)
	run("Basic", 0, search.Basic)
	run("portfolio-3", 3, search.MaxFanOut)
	run("portfolio-6", 6, search.MaxFanOut)
	return t, nil
}
