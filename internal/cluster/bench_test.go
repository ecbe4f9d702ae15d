package cluster

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// BenchmarkCandidates enumerates one constraint's candidates with every
// target row available, at K = 10, in both forms: form=candidates copies
// every winner's rows (Candidates), form=windows keeps them as windows
// (Windows, what the coloring search reads). The cases are:
//   - rows=N: the most frequent ethnicity of a Zipfian PopSyn sample;
//   - dense-conflict: a 400-row census sample, as one dense-conflict bench
//     instance, and its most frequent EDUCATION value with at most 8K
//     occurrences, as one of that workload's padder constraints: a small
//     pool whose result, not the scan, dominates;
//   - ldiv2: the 2,000-row PopSyn case under distinct 2-diversity, which
//     checks every winner on the pooled row buffer.
func BenchmarkCandidates(b *testing.B) {
	const k = 10
	run := func(name string, rel *relation.Relation, attr string, maxCount int, crit privacy.Criterion) {
		a, _ := rel.Schema().Index(attr)
		var best uint32
		bestN := 0
		for code, n := range rel.ValueFrequencies(a) {
			if n <= maxCount && (n > bestN || n == bestN && code < best) {
				best, bestN = code, n
			}
		}
		lower := bestN / 10
		if lower < k {
			lower = k
		}
		bound, err := constraint.New(attr, rel.Dict(a).Value(best), lower, bestN).Bound(rel)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEnumerator(rel, bound, Options{K: k, Criterion: crit})
		b.Run(fmt.Sprintf("%s/target=%d/form=candidates", name, bestN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(e.Candidates(nil, nil)) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
		b.Run(fmt.Sprintf("%s/target=%d/form=windows", name, bestN), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if e.Windows(nil, nil).Len() == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
	for _, rows := range []int{2000, 20000} {
		run(fmt.Sprintf("rows=%d", rows), dataset.PopSyn(dataset.Zipfian).Generate(rows, 3), "ETH", rows, nil)
	}
	run("dense-conflict", dataset.CensusSized(400).Generate(400, 3), "EDUCATION", 8*k, nil)
	run("ldiv2", dataset.PopSyn(dataset.Zipfian).Generate(2000, 3), "ETH", 2000, privacy.DistinctLDiversity{L: 2})
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
// pools, thousands of rows each, in one NewEnumerators call: on one worker
// and on all cores.
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
	for _, w := range []struct {
		name        string
		parallelism int
	}{{"1", 1}, {"all", 0}} {
		b.Run("workers="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, e := range NewEnumerators(rel, bounds, Options{K: k, Parallelism: w.parallelism}) {
					if e.TargetSize() == 0 {
						b.Fatal("empty pool")
					}
				}
			}
		})
	}
}
