package anon

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"

	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/trace"
)

// bigRelation builds a relation large enough that parallel Mondrian actually
// spawns workers (partitions above spawnGrain rows on both sides of a cut).
func bigRelation(seed uint64, n int) *relation.Relation {
	return randomRelation(rand.New(rand.NewPCG(seed, seed^0x9e37)), n)
}

// TestMondrianParallelEquivalence pins the determinism contract: for any
// Parallelism setting the partition list is identical — same clusters, same
// order — to the sequential run. Run under -race this also exercises the
// shared relation reads from worker goroutines.
func TestMondrianParallelEquivalence(t *testing.T) {
	rel := bigRelation(7, 4*spawnGrain)
	rows := allRows(rel)
	for _, k := range []int{3, 10} {
		seq, err := (&Mondrian{Parallelism: 1}).Partition(context.Background(), rel, rows, k)
		if err != nil {
			t.Fatal(err)
		}
		checkPartition(t, "Mondrian", seq, rows, k)
		for _, par := range []int{0, 2, 4, 8} {
			got, err := (&Mondrian{Parallelism: par}).Partition(context.Background(), rel, rows, k)
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			if !reflect.DeepEqual(got, seq) {
				t.Fatalf("parallelism %d k=%d diverged from sequential output", par, k)
			}
		}
	}
}

// cancelOnSplit cancels the run the moment the first cut is reported, so
// workers mid-recursion must notice the dead context on their own.
type cancelOnSplit struct {
	cancel context.CancelFunc
	splits atomic.Int64
}

func (c *cancelOnSplit) Trace(ev trace.Event) {
	if ev.Kind == trace.KindSplit && ev.Label != "" {
		if c.splits.Add(1) == 1 {
			c.cancel()
		}
	}
}

// TestMondrianCancelMidSplit: canceling while worker goroutines are inside
// the recursion must surface context.Canceled promptly from every branch.
func TestMondrianCancelMidSplit(t *testing.T) {
	rel := bigRelation(11, 4*spawnGrain)
	rows := allRows(rel)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelOnSplit{cancel: cancel}
	m := &Mondrian{Parallelism: 4, Tracer: tr}
	parts, err := m.Partition(ctx, rel, rows, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if parts != nil {
		t.Fatal("canceled partition returned results")
	}
	if tr.splits.Load() == 0 {
		t.Fatal("tracer saw no splits — cancellation path not exercised")
	}
}

// naiveExactKMember is the original O(n²) greedy scan, restated with the
// deterministic smallest-live-row tie-breaks the indexed implementation
// documents: argmax distance (ties → smallest row), argmin addCost (ties →
// smallest row), leftovers to the first cheapest cluster. It is the reference
// oracle for the signature-index rewrite.
func naiveExactKMember(rng *rand.Rand, crit privacy.Criterion, rel *relation.Relation, rows []int, k int) ([][]int, error) {
	qi := rel.Schema().QIIndexes()
	d := newDistancer(rel, rows)

	live := append([]int(nil), rows...)
	removeRow := func(r int) {
		for i, v := range live {
			if v == r {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}

	var clusters [][]int
	var summaries []*clusterSummary
	prevSeed := rows[rng.IntN(len(rows))]

	for len(live) >= k {
		seed, best := -1, -1.0
		for _, r := range live {
			if dist := d.dist(prevSeed, r); dist > best || (dist == best && r < seed) {
				best, seed = dist, r
			}
		}
		removeRow(seed)

		cs := newClusterSummary(rel, qi, seed)
		cluster := []int{seed}
		for len(cluster) < k || (crit != nil && !crit.Holds(rel, cluster)) {
			if len(live) == 0 {
				break
			}
			bestRow, bestCost := -1, int(^uint(0)>>1)
			for _, r := range live {
				if cost := cs.addCost(rel, r); cost < bestCost || (cost == bestCost && r < bestRow) {
					bestCost, bestRow = cost, r
				}
			}
			removeRow(bestRow)
			cs.add(rel, bestRow)
			cluster = append(cluster, bestRow)
		}
		if len(cluster) < k || (crit != nil && !crit.Holds(rel, cluster)) {
			if len(clusters) == 0 {
				return nil, errors.New("infeasible")
			}
			last := len(clusters) - 1
			for _, r := range cluster {
				summaries[last].add(rel, r)
			}
			clusters[last] = append(clusters[last], cluster...)
			break
		}
		clusters = append(clusters, cluster)
		summaries = append(summaries, cs)
		prevSeed = seed
	}

	// Leftovers ascend by row id, as KMember pops them off its index.
	for len(live) > 0 {
		r := live[0]
		for _, v := range live {
			if v < r {
				r = v
			}
		}
		removeRow(r)
		bestIdx, bestCost := 0, int(^uint(0)>>1)
		for i, cs := range summaries {
			if cost := cs.addCost(rel, r); cost < bestCost {
				bestCost, bestIdx = cost, i
			}
		}
		summaries[bestIdx].add(rel, r)
		clusters[bestIdx] = append(clusters[bestIdx], r)
	}
	return clusters, nil
}

// TestKMemberIndexedMatchesNaive differentially checks the signature-index
// exact mode against the naive reference across random inputs, k values and
// an l-diversity criterion (covering the merge-into-last fallback).
func TestKMemberIndexedMatchesNaive(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		gen := rand.New(rand.NewPCG(uint64(trial), 99))
		n := 10 + gen.IntN(140)
		rel := randomRelation(gen, n)
		rows := allRows(rel)
		for _, k := range []int{2, 3, 7} {
			if n < k {
				continue
			}
			for _, l := range []int{0, 2} {
				var crit privacy.Criterion
				if l > 0 {
					crit = privacy.DistinctLDiversity{L: l}
				}
				km := &KMember{Rng: rand.New(rand.NewPCG(uint64(trial), 5)), Criterion: crit}
				got, gotErr := km.Partition(context.Background(), rel, rows, k)
				want, wantErr := naiveExactKMember(rand.New(rand.NewPCG(uint64(trial), 5)), crit, rel, rows, k)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("trial %d n=%d k=%d l=%d: err mismatch indexed=%v naive=%v", trial, n, k, l, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d n=%d k=%d l=%d: indexed partition diverged\nindexed: %v\nnaive:   %v", trial, n, k, l, got, want)
				}
				checkPartition(t, "k-member-indexed", got, rows, k)
			}
		}
	}
}

// TestKMemberIndexedSubset: the index must honor row subsets (rest rows are
// a subset in production) and suppressed cells.
func TestKMemberIndexedSubset(t *testing.T) {
	gen := rand.New(rand.NewPCG(3, 33))
	rel := randomRelation(gen, 80)
	rel.Suppress(5, 0)
	rel.Suppress(17, 1)
	subset := make([]int, 0, 40)
	for r := 0; r < 80; r += 2 {
		subset = append(subset, r)
	}
	km := &KMember{Rng: rand.New(rand.NewPCG(8, 8))}
	got, err := km.Partition(context.Background(), rel, subset, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naiveExactKMember(rand.New(rand.NewPCG(8, 8)), nil, rel, subset, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subset partition diverged\nindexed: %v\nnaive:   %v", got, want)
	}
	checkPartition(t, "k-member-indexed", got, subset, 4)
}
