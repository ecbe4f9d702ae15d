package search

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/dataset"
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
