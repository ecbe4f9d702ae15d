package search

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/verify"
)

func benchGraph(b *testing.B, rows, nConstraints, k int) (*Graph, int) {
	b.Helper()
	rel := dataset.Census().Generate(rows, 5)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     nConstraints,
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
	return BuildGraph(rel, bounds, cluster.Options{K: k}), rel.Len()
}

func BenchmarkColoring(b *testing.B) {
	g, n := benchGraph(b, 5000, 8, 10)
	for _, strat := range []Strategy{Basic, MinChoice, MaxFanOut} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, found := g.Color(Options{
					Strategy: strat,
					Rng:      rand.New(rand.NewPCG(uint64(i), 7)),
					Accept: func(used int) bool {
						rest := n - used
						return rest == 0 || rest >= 10
					},
				})
				if !found {
					b.Fatal("no coloring")
				}
			}
		})
	}
}

func BenchmarkColoringScale(b *testing.B) {
	for _, nc := range []int{4, 12, 20} {
		g, _ := benchGraph(b, 5000, nc, 10)
		b.Run(fmt.Sprintf("constraints=%d", nc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, found := g.Color(Options{Strategy: MaxFanOut}); !found {
					b.Fatal("no coloring")
				}
			}
		})
	}
}

// BenchmarkColoringCensus colors a census-scale instance — 60,000 rows,
// proportional Σ with |Σ| = 8, k = 10, MinChoice — where candidate windows
// hold thousands of rows, so per-candidate work such as materializing (or
// sorting) every enumerated window shows up; BenchmarkColoring's 5,000-row
// windows are too small to show it. Each iteration starts from a fresh
// candidate cache, as a run does.
func BenchmarkColoringCensus(b *testing.B) {
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
	g := BuildGraph(rel, bounds, cluster.Options{K: k})
	accept := func(used int) bool {
		rest := rows - used
		return rest == 0 || rest >= k
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, found := g.Color(Options{Strategy: MinChoice, Accept: accept}); !found {
			b.Fatal("no coloring")
		}
	}
}

// denseGraphs builds n graphs of the infeasible REGION-core family
// (verify.DenseCensusSigma with two padders) over 400-row census samples,
// k = 10, as the dense-conflict benchmark workload draws them.
// Chronological search proves each infeasible by trying the padders'
// candidate products, so the search and candidate enumeration are all the
// work there is.
func denseGraphs(tb testing.TB, n int) []*Graph {
	tb.Helper()
	const rows, k = 400, 10
	rng := rand.New(rand.NewPCG(20210323, 0xd3a5e))
	var out []*Graph
	for tries := 0; len(out) < n; tries++ {
		if tries > 50*n {
			tb.Fatalf("only %d of %d census samples have a REGION core", len(out), n)
		}
		rel := dataset.CensusSized(rows).Generate(rows, rng.Uint64())
		sigma, ok := verify.DenseCensusSigma(rel, k, 2)
		if !ok {
			continue
		}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, BuildGraph(rel, bounds, cluster.Options{K: k}))
	}
	return out
}

// BenchmarkColoringDense colors 16 graphs of the infeasible REGION-core
// family (denseGraphs) per op under MinChoice, each from a fresh candidate
// cache as a run does. It is the one Go benchmark whose searches backtrack
// through thousands of candidates; enums/op counts the candidate
// enumerations (cache misses) the 16 searches make. core.Anonymize refutes
// this family by counting in its bind phase and never searches it, so this
// benchmark is where search speed on it is measured.
func BenchmarkColoringDense(b *testing.B) {
	graphs := denseGraphs(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	enums := 0
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			_, stats, found := g.Color(Options{Strategy: MinChoice})
			if found {
				b.Fatal("infeasible REGION core colored")
			}
			enums += stats.CacheMisses
		}
	}
	b.ReportMetric(float64(enums)/float64(b.N), "enums/op")
}

func BenchmarkColorPortfolio(b *testing.B) {
	g, _ := benchGraph(b, 5000, 8, 10)
	for _, workers := range []int{1, 3, 6} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, found := g.ColorPortfolio(Options{}, workers, uint64(i)); !found {
					b.Fatal("no coloring")
				}
			}
		})
	}
}
