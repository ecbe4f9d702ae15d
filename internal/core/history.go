package core

import (
	"log/slog"
	"os"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/history"
	"diva/internal/obs"
	"diva/internal/relation"
	"diva/internal/trace"
)

// historyConfig builds the run's engine/config fingerprint from the
// (defaults-resolved) options — every knob that changes what work the engine
// does, so records with equal hashes are re-runs of the same experiment.
func historyConfig(sigma constraint.Set, opts Options) history.Config {
	c := history.Config{
		K:           opts.K,
		Strategy:    opts.Strategy.String(),
		Shards:      opts.Shards,
		Parallelism: opts.Parallelism,
		Parallel:    opts.Parallel,
		MaxSteps:    opts.MaxSteps,
		Constraints: len(sigma),
		SigmaHash:   history.FingerprintConstraints(sigma),
	}
	if opts.Criterion != nil {
		c.Criterion = opts.Criterion.Name()
	}
	if opts.Anonymizer != nil {
		c.Baseline = opts.Anonymizer.Name()
	}
	if mc := opts.Cluster.MaxCandidates; mc != cluster.DefaultMaxCandidates {
		c.MaxCandidates = mc
	}
	return c
}

// depositHistory builds the finished run's record (outcome is
// RunOutcome(runErr)), emits the canonical wide-event log line when a
// canonical logger is installed (obs.LogRun), and appends the record to the history ledger when one is configured
// (Options.HistoryDir, falling back to DIVA_HISTORY_DIR). On error and
// infeasible outcomes the record carries a copy of the run's sealed
// flight-recorder window, so the trail into the failure outlives the
// process; the caller releases the run only after this copy. It is called on every
// outcome and never fails the run: ledger errors are logged and counted on
// the Ledger, nothing more.
func depositHistory(rel *relation.Relation, sigma constraint.Set, opts Options, m *trace.RunMetrics, outcome string, runErr error, run *obs.Run) {
	dir := opts.HistoryDir
	if dir == "" {
		dir = os.Getenv(history.EnvDir)
	}
	logging := obs.CanonicalLogger() != nil
	if dir == "" && !logging {
		return
	}
	rec := &history.Record{
		RunID:   m.RunID,
		Outcome: outcome,
		Config:  historyConfig(sigma, opts),
		Metrics: m,
	}
	if rel != nil {
		rec.Dataset = history.FingerprintRelation(rel)
	}
	if runErr != nil {
		rec.Error = runErr.Error()
		if run != nil && (rec.Outcome == "error" || rec.Outcome == "infeasible") {
			rec.Events = run.Flight().Snapshot()
		}
	}
	if logging {
		obs.LogRun(rec)
	}
	if dir == "" {
		return
	}
	l, err := history.Shared(dir)
	if err != nil {
		slog.Warn("diva: history ledger unavailable", "dir", dir, "err", err)
		return
	}
	if err := l.Append(rec); err != nil {
		slog.Warn("diva: history append failed", "dir", dir, "err", err)
	}
}
