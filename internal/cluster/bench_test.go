package cluster

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/rowset"
)

func BenchmarkCandidates(b *testing.B) {
	for _, rows := range []int{2000, 20000} {
		rel := dataset.PopSyn(dataset.Zipfian).Generate(rows, 3)
		eth, _ := rel.Schema().Index("ETH")
		// The most frequent ethnicity gives the largest target set.
		var best uint32
		bestN := 0
		for code, n := range rel.ValueFrequencies(eth) {
			if n > bestN {
				best, bestN = code, n
			}
		}
		value := rel.Dict(eth).Value(best)
		c := constraint.New("ETH", value, bestN/10, bestN)
		bound, err := c.Bound(rel)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEnumerator(rel, bound, Options{K: 10})
		b.Run(fmt.Sprintf("rows=%d/target=%d", rows, bestN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(e.Candidates(nil, nil)) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

func BenchmarkCandidatesWithExclusions(b *testing.B) {
	rel := dataset.PopSyn(dataset.Uniform).Generate(20000, 3)
	gen, _ := rel.Schema().Index("GEN")
	code, _ := rel.Dict(gen).Lookup("Male")
	n := rel.Count(gen, code)
	bound, err := constraint.New("GEN", "Male", n/10, n).Bound(rel)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEnumerator(rel, bound, Options{K: 10})
	used := rowset.New(rel.Len()) // a third of rows taken
	for row := 0; row < rel.Len(); row += 3 {
		used.Add(row)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(e.Candidates(nil, used)) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkNewEnumerator prepares the enumerators of a census-scale graph —
// 60,000 rows, proportional Σ with |Σ| = 8, k = 10, as BenchmarkColoringCensus
// in package search — so each iteration gathers and sorts eight candidate
// pools, thousands of rows each.
func BenchmarkNewEnumerator(b *testing.B) {
	const rows, k = 60000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 5)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     8,
		K:         k,
		Rng:       rand.New(rand.NewPCG(2, 4)),
		UpperFrac: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bound := range bounds {
			if NewEnumerator(rel, bound, Options{K: k}).TargetSize() == 0 {
				b.Fatal("empty pool")
			}
		}
	}
}
