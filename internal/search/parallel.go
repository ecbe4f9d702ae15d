package search

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"diva/internal/cluster"
	"diva/internal/trace"
)

// ColorPortfolio runs several coloring searches concurrently — a portfolio
// of the three node-selection strategies plus randomized Basic instances —
// and returns the first coloring found, cancelling the rest. It realizes
// the paper's future-work direction of parallelizing the coloring to
// improve scalability: on instances where one strategy backtracks heavily,
// another often completes quickly, and the portfolio's wall time is the
// minimum over its members.
//
// workers ≤ 0 selects three workers (one per strategy). The search is
// deterministic for a fixed seed in the sense of which colorings are
// reachable, but which worker wins a close race may vary; every returned
// coloring satisfies the same invariants as Color's. The reported Stats
// are the winning worker's, with WinnerWorker and WinnerStrategy naming it.
//
// Cancellation: opts.Ctx aborts every worker at step granularity; when the
// portfolio ends without a coloring and the context is canceled, the
// returned Stats carry the context's error in Stats.Err.
//
// Tracing: workers run with per-step events suppressed (their interleaving
// is nondeterministic), but KindProgress heartbeats are forwarded from every
// worker as they happen — each stamped with its worker index — so a live run
// stays observable while the portfolio races. When a worker wins, the
// coordinator replays the winner's per-node assign/backtrack counts into
// opts.Tracer as batched KindAssign/KindBacktrack events (Event.N carries
// the count) and closes with the KindWorkerWin event identifying the winner
// and its strategy. The run's totals are the returned Stats, which the
// engine reports in its run-end event.
func (g *Graph) ColorPortfolio(opts Options, workers int, seed uint64) (cluster.Clustering, Stats, bool) {
	if workers <= 0 {
		workers = 3
	}
	tr := opts.Tracer
	// Workers run with per-step events suppressed; only heartbeats pass
	// through (concurrently — the Tracer contract requires KindProgress to
	// be handled goroutine-safely in portfolio mode).
	opts.Tracer = nil
	if tr != nil {
		opts.Tracer = trace.ProgressOnly(tr)
	}
	type outcome struct {
		sigma  cluster.Clustering
		stats  Stats
		worker int
		strat  Strategy
	}
	var (
		stop    atomic.Bool
		mu      sync.Mutex
		best    *outcome
		wg      sync.WaitGroup
		fullRot = []Strategy{MinChoice, MaxFanOut, Basic}
	)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wopts := opts
			wopts.Strategy = fullRot[w%len(fullRot)]
			wopts.Rng = rand.New(rand.NewPCG(seed+uint64(w), seed^0x6c62272e07bb0142))
			wopts.cancel = &stop
			wopts.worker = w + 1
			sigma, stats, found := g.Color(wopts)
			mu.Lock()
			defer mu.Unlock()
			if found && best == nil {
				best = &outcome{sigma: sigma, stats: stats, worker: w, strat: wopts.Strategy}
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	if best == nil {
		var stats Stats
		if opts.Ctx != nil {
			stats.Err = opts.Ctx.Err() // nil unless canceled
		}
		return nil, stats, false
	}
	best.stats.WinnerWorker, best.stats.WinnerStrategy = best.worker, best.strat.String()
	if tr != nil {
		// Replay the winner's per-node search activity (suppressed while the
		// portfolio raced) as batched events before announcing the winner.
		best.stats.ReplayInto(tr, nil)
		tr.Trace(trace.Event{Kind: trace.KindWorkerWin, N: best.worker, Strategy: best.stats.WinnerStrategy})
	}
	return best.sigma, best.stats, true
}
