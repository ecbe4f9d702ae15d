package obs

import (
	"time"

	"diva/internal/trace"
)

// Metrics is the process-wide Prometheus registry served at /metrics. Every
// finished engine run feeds it through Collect, so any program importing the
// engine exposes run metrics with no further plumbing.
var Metrics = NewRegistry()

// Default metric families. Durations use exponential buckets from 1ms to
// ~65s; search-effort histograms use exponential buckets from 1 to ~4M
// (MaxSteps defaults to 1M); ratio-valued histograms use ten linear buckets
// over [0, 1].
var (
	mRuns = Metrics.NewCounterVec("diva_runs_total",
		"Completed DIVA runs by outcome (ok, infeasible, canceled, error).", "outcome")
	mPhaseDur = Metrics.NewHistogramVec("diva_phase_duration_seconds",
		"Wall time per engine phase.", "phase", ExpBuckets(0.001, 2, 17))
	mSteps = Metrics.NewHistogram("diva_search_steps",
		"Coloring-search assignment attempts per run.", ExpBuckets(1, 4, 12))
	mBacktracks = Metrics.NewHistogram("diva_search_backtracks",
		"Coloring-search retracted assignments per run.", ExpBuckets(1, 4, 12))
	mHitRatio = Metrics.NewHistogram("diva_candidate_cache_hit_ratio",
		"Per-run candidate-cache hit ratio.", LinearBuckets(0.1, 0.1, 10))
	mCacheHits = Metrics.NewCounter("diva_candidate_cache_hits_total",
		"Candidate-cache hits across runs.")
	mCacheMisses = Metrics.NewCounter("diva_candidate_cache_misses_total",
		"Candidate-cache misses across runs.")
	mSuppressed = Metrics.NewHistogram("diva_suppressed_cells",
		"Suppressed QI cells (stars) per published relation.", ExpBuckets(1, 4, 12))
	mAccuracy = Metrics.NewHistogram("diva_accuracy",
		"Fraction of QI cells preserved per published relation.", LinearBuckets(0.1, 0.1, 10))
	mHeartbeats = Metrics.NewCounter("diva_search_heartbeats_total",
		"KindProgress heartbeats received by the run registry.")
	mShardedRuns = Metrics.NewCounter("diva_sharded_runs_total",
		"Runs that colored Σ component-wise.")
	mSigmaComponents = Metrics.NewHistogram("diva_sigma_components",
		"Σ connected components per component-wise run.", ExpBuckets(1, 2, 12))
)

func init() {
	Metrics.NewGaugeFunc("diva_runs_live",
		"Engine runs currently in flight.", func() float64 {
			return float64(Runs.LiveCount())
		})
	Metrics.NewGaugeFunc("diva_run_heartbeat_age_seconds",
		"Staleness of the most-stale live run's last trace event; 0 with no live runs.", func() float64 {
			return Runs.MaxHeartbeatAge(time.Now()).Seconds()
		})
	Metrics.NewCounterFunc("diva_events_dropped_total",
		"Live-stream events dropped because a subscriber's buffer was full.", func() int64 {
			return Runs.Events().Dropped()
		})
	Metrics.NewCounterFunc("diva_runs_evicted_total",
		"Completed runs dropped from the process-wide registry's ring to honor its retention cap.",
		Runs.Evicted)
	Metrics.NewCounterFunc("diva_stalled_runs_total",
		"Runs flagged stalled by the watchdog (heartbeat older than the threshold).",
		Runs.Stalls)
}

// Collect folds one finished run into the Prometheus registry. core.Anonymize
// calls it once per run, on every outcome; outcome is the run's
// core.RunOutcome classification.
func Collect(m *trace.RunMetrics, outcome string) {
	mRuns.With(outcome).Inc()
	for _, pt := range m.Phases {
		mPhaseDur.With(string(pt.Phase)).Observe(pt.Duration.Seconds())
	}
	mSteps.Observe(float64(m.Steps))
	mBacktracks.Observe(float64(m.Backtracks))
	mCacheHits.Add(int64(m.CandidateCacheHits))
	mCacheMisses.Add(int64(m.CandidateCacheMisses))
	if lookups := m.CandidateCacheHits + m.CandidateCacheMisses; lookups > 0 {
		mHitRatio.Observe(float64(m.CandidateCacheHits) / float64(lookups))
	}
	if m.Accuracy >= 0 {
		mSuppressed.Observe(float64(m.SuppressedCells))
		mAccuracy.Observe(m.Accuracy)
	}
	if m.SigmaComponents > 0 {
		mShardedRuns.Inc()
		mSigmaComponents.Observe(float64(m.SigmaComponents))
	}
}

// PhaseSeconds returns the wall time per phase summed over every run
// collected so far (the sums of diva_phase_duration_seconds). Subtracting two
// readings attributes phase time to the workload run between them.
func PhaseSeconds() map[trace.Phase]float64 {
	mPhaseDur.mu.Lock()
	defer mPhaseDur.mu.Unlock()
	out := make(map[trace.Phase]float64, len(mPhaseDur.m))
	for ph, h := range mPhaseDur.m {
		out[trace.Phase(ph)] = h.Sum()
	}
	return out
}
