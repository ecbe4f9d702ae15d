package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"diva/internal/history"
	"diva/internal/trace"
)

// canonical holds the logger LogRun writes through; nil means canonical
// logging is off (the engine then skips building the record entirely when no
// ledger is configured either).
var canonical atomic.Pointer[slog.Logger]

// SetCanonicalLogger installs the logger that receives one canonical
// wide-event record per finished run (nil switches canonical logging off).
// cmd/diva installs its -log-format logger here; services install their own.
func SetCanonicalLogger(l *slog.Logger) {
	if l == nil {
		canonical.Store(nil)
		return
	}
	canonical.Store(l)
}

// CanonicalLogger returns the installed canonical logger, or nil.
func CanonicalLogger() *slog.Logger { return canonical.Load() }

// LogRun emits the canonical wide-event log line for one finished run: a
// single record carrying the run's full identity (config and dataset
// fingerprints, the cross-run comparison key), per-phase wall times, search
// counters and outcome — so one grep over the logs reconstructs any run
// without joining against other lines. No-op when no canonical logger is
// installed.
func LogRun(rec *history.Record) {
	l := canonical.Load()
	if l == nil || rec == nil {
		return
	}
	cfg := rec.Config
	cfgAttrs := []any{
		slog.String("hash", cfg.Hash()),
		slog.Int("k", cfg.K),
		slog.String("strategy", cfg.Strategy),
		slog.String("criterion", cfg.Criterion),
		slog.String("baseline", cfg.Baseline),
		slog.Int("shards", cfg.Shards),
		slog.Int("parallel", cfg.Parallel),
		slog.Int("parallelism", cfg.Parallelism),
		slog.Int("max_steps", cfg.MaxSteps),
		slog.Int("constraints", cfg.Constraints),
		slog.String("sigma_hash", cfg.SigmaHash),
	}
	attrs := []slog.Attr{
		slog.Uint64("run", rec.RunID),
		slog.String("outcome", rec.Outcome),
		slog.String("key", rec.Key()),
		slog.Group("config", cfgAttrs...),
		slog.Group("dataset",
			slog.String("hash", rec.Dataset.Hash()),
			slog.Int("rows", rec.Dataset.Rows),
			slog.Int("columns", rec.Dataset.Columns)),
	}
	if rec.Error != "" {
		attrs = append(attrs, slog.String("error", rec.Error))
	}
	if m := rec.Metrics; m != nil {
		attrs = append(attrs,
			slog.Duration("total", m.Total),
			slog.Group("phases", phaseAttrs(m)...),
			slog.Group("search",
				slog.Int("steps", m.Steps),
				slog.Int("backtracks", m.Backtracks),
				slog.Int("candidates", m.CandidatesTried),
				slog.Int("cache_hits", m.CandidateCacheHits),
				slog.Int("cache_misses", m.CandidateCacheMisses)))
		if m.Accuracy >= 0 {
			attrs = append(attrs,
				slog.Int("suppressed_cells", m.SuppressedCells),
				slog.Float64("accuracy", m.Accuracy))
		}
	}
	l.LogAttrs(context.Background(), slog.LevelInfo, "diva run", attrs...)
}

// phaseAttrs folds the run's phase timeline into one duration per phase
// (phases can recur — a component-wise run that falls back re-enters
// build-graph and color), preserving first-appearance order.
func phaseAttrs(m *trace.RunMetrics) []any {
	var order []trace.Phase
	sums := make(map[trace.Phase]time.Duration, len(m.Phases))
	for _, pt := range m.Phases {
		if _, ok := sums[pt.Phase]; !ok {
			order = append(order, pt.Phase)
		}
		sums[pt.Phase] += pt.Duration
	}
	attrs := make([]any, 0, len(order))
	for _, ph := range order {
		attrs = append(attrs, slog.Duration(string(ph), sums[ph]))
	}
	return attrs
}
