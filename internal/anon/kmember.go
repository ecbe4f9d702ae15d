package anon

import (
	"context"
	"fmt"
	"math/rand/v2"

	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// KMember implements the greedy k-member clustering algorithm of Byun,
// Kamra, Bertino and Li (DASFAA 2007): repeatedly pick the record furthest
// from the previous cluster's seed, grow a cluster around it by greedily
// adding the record with the lowest information-loss increase until the
// cluster has k members, and finally distribute the < k leftovers to the
// clusters whose loss they increase least.
//
// Information loss is measured in suppressed cells, matching the value-
// suppression model of the DIVA paper (suppression is the maximal form of
// generalization, so the greedy structure of the original algorithm is
// unchanged). Every remaining record is considered at every step, as in the
// original O(n²) algorithm, but the scan runs over QI signatures on the
// index in kmember_index.go, with deterministic smallest-row tie-breaks.
type KMember struct {
	// Rng drives the random choice of the first reference record (one
	// draw per Partition call). Required.
	Rng *rand.Rand
	// Criterion, when non-nil, is an additional monotone privacy
	// requirement (e.g. privacy.DistinctLDiversity): clusters keep growing
	// past k members until the criterion holds. Non-monotone criteria are
	// rejected, since greedy growth cannot enforce them.
	Criterion privacy.Criterion
}

// Name returns "k-member".
func (km *KMember) Name() string { return "k-member" }

// Partition implements Partitioner. The context is checked once per grown
// cluster, so cancellation latency is one greedy cluster construction.
func (km *KMember) Partition(ctx context.Context, rel *relation.Relation, rows []int, k int) ([][]int, error) {
	if err := checkPartitionable(ctx, rows, k); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if km.Criterion != nil && !km.Criterion.Monotone() {
		return nil, fmt.Errorf("anon: k-member cannot enforce non-monotone criterion %s", km.Criterion.Name())
	}
	qi := rel.Schema().QIIndexes()
	d := newDistancer(rel, rows)

	prevSeed := rows[km.Rng.IntN(len(rows))]
	prevCodes := make([]uint32, len(qi))
	for i, a := range qi {
		prevCodes[i] = rel.Code(prevSeed, a)
	}

	idx := buildSigIndex(rel, qi, rows)

	var clusters [][]int
	var summaries []*clusterSummary
	for idx.liveN >= k {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		// Seed: the record furthest from the previous seed (first
		// iteration: from a random record, as in the original algorithm).
		seed := idx.pop(idx.argmaxDist(d, prevCodes))

		cs := newClusterSummary(rel, qi, seed)
		cluster := []int{seed}
		for len(cluster) < k || (km.Criterion != nil && !km.Criterion.Holds(rel, cluster)) {
			if idx.liveN == 0 {
				break // enforcement handled below
			}
			r := idx.pop(idx.argminAddCost(cs))
			cs.add(rel, r)
			cluster = append(cluster, r)
		}
		if len(cluster) < k || (km.Criterion != nil && !km.Criterion.Holds(rel, cluster)) {
			// Ran out of records before the cluster became legal: merge it
			// into an existing cluster (monotone criteria survive merging)
			// or fail if it is the first.
			if len(clusters) == 0 {
				return nil, fmt.Errorf("anon: k-member cannot satisfy %s on %d records", km.Criterion.Name(), len(rows))
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
		for i, a := range qi {
			prevCodes[i] = rel.Code(seed, a)
		}
	}

	// Distribute leftovers (< k of them) to the cheapest clusters. The
	// centroid cache memoizes addCost per (cluster state, signature):
	// cluster state is identified by its Zobrist fingerprint, which is
	// updated incrementally as leftovers join, so a stale cost can never be
	// served after a cluster changed.
	fps := make([]uint64, len(clusters))
	for i, c := range clusters {
		fps[i] = rowset.Fingerprint(c)
	}
	centroid := make(map[[2]uint64]int) // (fingerprint, signature group) → addCost
	for idx.liveN > 0 {
		sig, _ := idx.minFront() // leftovers go in ascending row order
		r := idx.pop(sig)
		bestIdx, bestCost := 0, int(^uint(0)>>1)
		for i, cs := range summaries {
			key := [2]uint64{fps[i], uint64(sig)}
			cost, ok := centroid[key]
			if !ok {
				cost = cs.addCost(rel, r)
				centroid[key] = cost
			}
			if cost < bestCost {
				bestCost, bestIdx = cost, i
			}
		}
		summaries[bestIdx].add(rel, r)
		clusters[bestIdx] = append(clusters[bestIdx], r)
		fps[bestIdx] ^= rowset.Hash(r)
	}
	return clusters, nil
}
