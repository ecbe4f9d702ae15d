package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/search"
)

// shardedDigest pins the component-wise path's exact output, which the
// equivalence golden (joint runs only) does not cover. Every shard count
// ≥ 2 gives the same output, since the rest rows go to the partitioner in
// one call whatever the count.
const shardedDigest = "25324ca99e8f3ebecc0e394c24b2fb3cc1a5b7c39c4850770705a3ede1ec5f3c"

// shardedClusteringDigest pins SΣ of the same runs. It was recorded before
// the rest rows stopped being cut into QI-local shards, which changed Rk
// but must not change the coloring.
const shardedClusteringDigest = "61de70f0e0698583f87560742af36b4fb394ed833ab2aedcb5060557816d1500"

// clusteringDigest hashes a clustering's clusters in order.
func clusteringDigest(cl cluster.Clustering) string {
	h := sha256.New()
	fmt.Fprintf(h, "#clustering %d\n", len(cl))
	for _, c := range cl {
		fmt.Fprintln(h, c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedOutputDigest runs a 20,000-row census sample with an upper-bound
// Σ (UpperFrac 0.9, so Integrate repairs cells) component-wise at 2 and 4
// shards and compares each run's output and SΣ digests with the pinned ones.
func TestShardedOutputDigest(t *testing.T) {
	const rows, k = 20000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 42)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     8,
		K:         k,
		Rng:       rand.New(rand.NewPCG(0x51a3, 0x51a3)),
		UpperFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res := anonymize(t, rel, sigma, core.Options{
				K: k, Strategy: search.MinChoice, Rng: rand.New(rand.NewPCG(9, 7)), Shards: shards,
			})
			if res.Metrics.SigmaComponents < 1 {
				t.Fatalf("SigmaComponents = %d: the run was not component-wise", res.Metrics.SigmaComponents)
			}
			if res.RepairedCells == 0 {
				t.Fatal("Integrate repaired no cells; the sample no longer exercises repair")
			}
			if got := clusteringDigest(res.Clustering); got != shardedClusteringDigest {
				t.Errorf("SΣ digest %s differs from the pinned %s — the component-wise coloring changed", got, shardedClusteringDigest)
			}
			if got := digestResult(res); got != shardedDigest {
				t.Errorf("output digest %s differs from the pinned %s — the component-wise output changed", got, shardedDigest)
			}
		})
	}
}
