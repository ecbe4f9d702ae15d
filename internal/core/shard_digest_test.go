package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/search"
)

// shardedDigests pins the component-wise path's exact output, which the
// equivalence golden (joint runs only) does not cover. The digests were
// recorded at the commit before the shard plan's comparison sort became a
// radix sort and Mondrian began deriving child histograms by subtraction;
// both rewrites must leave them byte-identical.
var shardedDigests = map[int]string{
	2: "450603f4868889011241bcea8181db17a74760d79b2f69c4b4ee05dc0c40b895",
	4: "d0190c22b8fc6c47eb40f5ac83636a4c3ef4f0ba56cc02a679efe9aca6acb5da",
}

// TestShardedOutputDigest runs a 20,000-row census sample with an upper-bound
// Σ (UpperFrac 0.9, so Integrate repairs cells) through explicit 2- and
// 4-shard plans and compares each run's digest with the pinned one.
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
	for shards, want := range shardedDigests {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			res := anonymize(t, rel, sigma, core.Options{
				K: k, Strategy: search.MinChoice, Rng: rand.New(rand.NewPCG(9, 7)), Shards: shards,
			})
			if res.Metrics.RestShards != shards {
				t.Fatalf("RestShards = %d, want %d", res.Metrics.RestShards, shards)
			}
			if res.RepairedCells == 0 {
				t.Fatal("Integrate repaired no cells; the sample no longer exercises cross-shard repair")
			}
			if got := digestResult(res); got != want {
				t.Errorf("output digest %s differs from the pinned %s — the component-wise output changed", got, want)
			}
		})
	}
}
