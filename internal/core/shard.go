package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
)

// ShardsAuto selects the shard count automatically: GOMAXPROCS, clamped so
// every shard covers at least minShardRows tuples (small relations run
// monolithically — sharding them buys nothing).
const ShardsAuto = -1

// minShardRows is the smallest relation slice worth a shard of its own in
// auto mode. An explicit Options.Shards ≥ 2 is honored regardless, so tests
// can exercise the sharded path on micro-instances.
const minShardRows = 4096

// shardCount resolves Options.Shards against the relation size. It returns
// 1 (monolithic) unless sharding is explicitly requested or auto mode finds
// both spare parallelism and enough rows.
func shardCount(want, n int) int {
	switch {
	case want == 0:
		return 1
	case want < 0:
		w := runtime.GOMAXPROCS(0)
		if m := n / minShardRows; m < w {
			w = m
		}
		if w < 2 {
			return 1
		}
		return w
	case want < 2:
		return 1
	default:
		return want
	}
}

// shardWorkers bounds the shard fan-out from Options.Parallelism (0 means
// GOMAXPROCS, same as the baseline partitioner's convention).
func shardWorkers(parallelism int) int {
	if parallelism > 0 {
		return parallelism
	}
	return runtime.GOMAXPROCS(0)
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
	sem := make(chan struct{}, shardWorkers(opts.Parallelism))
	var wg sync.WaitGroup
	for ci := range comps {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sopts := search.Options{
				Strategy: opts.Strategy,
				Rng:      rand.New(rand.NewPCG(seeds[ci], seeds[ci]^0x6c62272e07bb0142)),
				MaxSteps: opts.MaxSteps,
				Ctx:      ctx,
				Tracer:   wtr,
			}
			if opts.Nogoods {
				// Per-component store: node indexes and fingerprints are
				// component-local, so sharing across components would only
				// produce dead buckets.
				sopts.Nogoods = search.NewNogoodStore(search.DefaultNogoodCapacity)
			}
			clusterings[ci], compStats[ci], found[ci] = graphs[ci].Color(sopts)
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

// planRestShards splits the rest rows into at most want QI-local shards:
// rows are ordered by their quasi-identifier code vectors so each shard
// covers a contiguous band of QI-space (the same locality Mondrian's median
// cuts exploit), then chunked into balanced contiguous slices of at least k
// rows each. The order is relation.SortBy's stable lexicographic order of
// the code vectors, so the plan is deterministic: equal inputs give equal
// shards.
func planRestShards(rel *relation.Relation, rest []int, want, k int) [][]int {
	if len(rest) == 0 {
		return nil // SortBy reads nil rows as every row
	}
	if max := len(rest) / k; max < want {
		want = max
	}
	if want < 1 {
		want = 1
	}
	sorted := rel.SortBy(rel.Schema().QIIndexes(), rest)
	shards := make([][]int, 0, want)
	base, extra := len(sorted)/want, len(sorted)%want
	at := 0
	for s := 0; s < want; s++ {
		size := base
		if s < extra {
			size++
		}
		if size == 0 {
			continue
		}
		shards = append(shards, sorted[at:at+size])
		at += size
	}
	return shards
}

// partitionShards partitions each shard's rows independently and
// concatenates the parts in shard order. The default Mondrian partitioner
// fans out across shards (each shard gets a sequential clone, the shared
// numeric cache is pre-warmed, and split events flow through a synchronized
// tracer); any other partitioner may carry mutable state (e.g. KMember's
// Rng), so its shards run sequentially in shard order for determinism.
func partitionShards(ctx context.Context, e *runEnv, shards [][]int) ([][]int, error) {
	if len(shards) == 1 {
		return e.opts.Anonymizer.Partition(ctx, e.rel, shards[0], e.opts.K)
	}
	m, ok := e.opts.Anonymizer.(*anon.Mondrian)
	if !ok {
		var parts [][]int
		for _, rows := range shards {
			p, err := e.opts.Anonymizer.Partition(ctx, e.rel, rows, e.opts.K)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p...)
		}
		return parts, nil
	}
	str := trace.Synchronized(e.tr)
	shardParts := make([][][]int, len(shards))
	errs := make([]error, len(shards))
	sem := make(chan struct{}, shardWorkers(e.opts.Parallelism))
	var wg sync.WaitGroup
	for si := range shards {
		si := si
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			clone := &anon.Mondrian{Criterion: m.Criterion, Parallelism: 1}
			clone.SetTracer(str)
			shardParts[si], errs[si] = clone.Partition(ctx, e.rel, shards[si], e.opts.K)
		}()
	}
	wg.Wait()
	var parts [][]int
	for si := range shards {
		if errs[si] != nil {
			return nil, errs[si]
		}
		parts = append(parts, shardParts[si]...)
	}
	return parts, nil
}
