package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/par"
	"diva/internal/search"
	"diva/internal/trace"
)

// ShardsAuto turns the component-wise engine on when GOMAXPROCS is at least
// 2 and the relation holds at least 2·minShardRows tuples; smaller runs
// color Σ jointly, where decomposing it buys nothing.
const ShardsAuto = -1

// minShardRows is the fewest tuples per worker that auto mode asks for
// before it decomposes Σ. An explicit Options.Shards ≥ 2 is honored
// regardless, so tests can exercise the component-wise path on
// micro-instances.
const minShardRows = 4096

// sharded resolves Options.Shards against the relation size: it reports
// whether the run colors Σ component-wise. That is so for any explicit
// count ≥ 2, and in auto mode when both GOMAXPROCS and n/minShardRows
// reach 2.
func sharded(want, n int) bool {
	if want < 0 {
		return min(runtime.GOMAXPROCS(0), n/minShardRows) >= 2
	}
	return want >= 2
}

// colorComponents colors every component of Σ concurrently (bounded by
// Options.Parallelism), each with a deterministic per-component seed drawn
// from the run Rng up front in component order, so the outcome does not
// depend on goroutine scheduling. Merging the clusterings is sound because
// pool-disjointness makes cross-component clusters row-disjoint and mutually
// occurrence-free (DESIGN.md §11). There is no Accept hook: a component
// cannot see the global rest size, so the driver checks it on the merged
// clustering.
//
// Per-step search events are suppressed during the concurrent coloring
// (their interleaving is nondeterministic; heartbeats pass through a
// synchronized tracer) and replayed afterwards as batched per-node counts in
// component order, so traces and profiles stay deterministic for a fixed
// shard count and seed. The summed totals go into e.stats.
func (e *runEnv) colorComponents(ctx context.Context, comps []constraint.Component, graphs []*search.Graph) (cluster.Clustering, error) {
	opts := e.opts
	seeds := make([]uint64, len(comps))
	for i := range seeds {
		seeds[i] = opts.Rng.Uint64()
	}
	clusterings := make([]cluster.Clustering, len(comps))
	compStats := make([]search.Stats, len(comps))
	found := make([]bool, len(comps))
	wtr := trace.ProgressOnly(trace.Synchronized(e.tr))
	sem := make(chan struct{}, par.Procs(opts.Parallelism))
	var wg sync.WaitGroup
	for ci := range comps {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			clusterings[ci], compStats[ci], found[ci] = graphs[ci].Color(search.Options{
				Strategy: opts.Strategy,
				Rng:      rand.New(rand.NewPCG(seeds[ci], seeds[ci]^0x6c62272e07bb0142)),
				MaxSteps: opts.MaxSteps,
				Ctx:      ctx,
				Tracer:   wtr,
			})
		}()
	}
	wg.Wait()
	for ci := range comps {
		compStats[ci].ReplayInto(e.tr, comps[ci].Indices)
		e.stats.Merge(compStats[ci])
	}
	for ci := range comps {
		if found[ci] {
			continue
		}
		st := compStats[ci]
		if st.Err != nil {
			return nil, fmt.Errorf("diva: component %d coloring interrupted after %d steps (%d backtracks): %w", ci, st.Steps, st.Backtracks, st.Err)
		}
		return nil, fmt.Errorf("diva: component %d coloring failed after %d steps (%d backtracks): %w", ci, st.Steps, st.Backtracks, ErrNoDiverseClustering)
	}
	// Merge in component order. Clusters from different components are
	// row-disjoint (their pools are), so concatenation is a valid clustering
	// of the union.
	var sigmaClustering cluster.Clustering
	for ci := range comps {
		sigmaClustering = append(sigmaClustering, clusterings[ci]...)
	}
	return sigmaClustering, nil
}
