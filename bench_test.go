// Benchmarks regenerating the paper's evaluation, one per table and figure.
//
// Each benchmark measures a representative configuration of its experiment
// at a laptop scale (the full sweeps, and the complete series the paper
// plots, are produced by cmd/divabench — see EXPERIMENTS.md). Sub-benchmarks
// split the series the figure compares, so
//
//	go test -bench=Fig5a -benchmem
//
// reports one line per algorithm exactly like the figure's legend.
package diva_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"diva"
	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/metrics"
	"diva/internal/search"
)

// benchRows is the default relation size for benchmark runs.
const benchRows = 2000

func benchRelation(b *testing.B, gen *dataset.Generator, rows int) *diva.Relation {
	b.Helper()
	return gen.Generate(rows, 42)
}

func benchSigma(b *testing.B, rel *diva.Relation, n, k int) constraint.Set {
	b.Helper()
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: n,
		K:     k,
		Rng:   rand.New(rand.NewPCG(3, 14)),
	})
	if err != nil {
		b.Fatal(err)
	}
	return sigma
}

func runDIVABench(b *testing.B, rel *diva.Relation, sigma constraint.Set, k int, strat search.Strategy) {
	b.Helper()
	b.ReportAllocs()
	phaseNanos := make(map[diva.Phase]float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewPCG(9, uint64(i)))
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:          k,
			Strategy:   strat,
			Rng:        rng,
			Anonymizer: &anon.KMember{Rng: rng},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range res.Metrics.Phases {
			phaseNanos[pt.Phase] += float64(pt.Duration)
		}
		if i == 0 {
			b.ReportMetric(metrics.Accuracy(res.Output), "accuracy")
		}
	}
	b.StopTimer()
	// Per-phase breakdown in benchstat-comparable units: each phase becomes
	// its own "<phase>-ns/op" column, so two runs diff phase by phase.
	for _, ph := range []diva.Phase{
		diva.PhaseBind, diva.PhaseBuildGraph, diva.PhaseColor, diva.PhaseSuppress,
		diva.PhaseBaseline, diva.PhaseIntegrate, diva.PhaseVerify,
	} {
		if ns, ok := phaseNanos[ph]; ok {
			b.ReportMetric(ns/float64(b.N), string(ph)+"-ns/op")
		}
	}
}

func runBaselineBench(b *testing.B, rel *diva.Relation, p anon.Partitioner, k int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: k, Rng: rand.New(rand.NewPCG(1, 2)), Anonymizer: p})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(metrics.Accuracy(res.Output), "accuracy")
		}
	}
}

// BenchmarkColorPhase isolates the coloring search — graph build plus
// Color — from the rest of the pipeline, so B/op and allocs/op reflect the
// backtracking loop alone (the end-to-end benchmarks fold the suppression
// and baseline phases into their allocation counts).
func BenchmarkColorPhase(b *testing.B) {
	rel := benchRelation(b, dataset.Census(), benchRows)
	sigma := benchSigma(b, rel, 8, 10)
	bounds, err := sigma.Bind(rel)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph := search.BuildGraph(rel, bounds, cluster.Options{K: 10})
				_, _, found := graph.Color(search.Options{
					Strategy: strat,
					Rng:      rand.New(rand.NewPCG(9, 7)),
				})
				if !found {
					b.Fatal("no coloring")
				}
			}
		})
	}
}

// BenchmarkTable4_DatasetProfiles measures generating each evaluation
// dataset (scaled) and computing its Table 4 characteristics.
func BenchmarkTable4_DatasetProfiles(b *testing.B) {
	for name, p := range dataset.Profiles() {
		rows := p.DefaultRows / 10
		if rows < 1000 {
			rows = p.DefaultRows
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rel := p.Generator.Generate(rows, 42)
				_ = rel.DistinctCount(rel.Schema().QIIndexes())
			}
		})
	}
}

// BenchmarkTable5_DefaultConfiguration measures one DIVA run at the
// parameter defaults of Table 5 (scaled).
func BenchmarkTable5_DefaultConfiguration(b *testing.B) {
	rel := benchRelation(b, dataset.Census(), benchRows)
	sigma := benchSigma(b, rel, 8, 10)
	runDIVABench(b, rel, sigma, 10, search.MaxFanOut)
}

// BenchmarkFig4a_RuntimeVsNumConstraints: runtime per strategy as |Σ|
// varies (Census).
func BenchmarkFig4a_RuntimeVsNumConstraints(b *testing.B) {
	rel := benchRelation(b, dataset.Census(), benchRows)
	for _, ns := range []int{4, 12, 20} {
		sigma := benchSigma(b, rel, ns, 10)
		for _, strat := range []search.Strategy{search.MinChoice, search.MaxFanOut, search.Basic} {
			b.Run(fmt.Sprintf("sigma=%d/%s", ns, strat), func(b *testing.B) {
				runDIVABench(b, rel, sigma, 10, strat)
			})
		}
	}
}

// BenchmarkFig4b_AccuracyVsNumConstraints: the same sweep, reported via the
// accuracy metric (the benchmark's accuracy column is the figure's y-axis).
func BenchmarkFig4b_AccuracyVsNumConstraints(b *testing.B) {
	rel := benchRelation(b, dataset.Census(), benchRows)
	for _, ns := range []int{4, 12, 20} {
		sigma := benchSigma(b, rel, ns, 10)
		b.Run(fmt.Sprintf("sigma=%d", ns), func(b *testing.B) {
			runDIVABench(b, rel, sigma, 10, search.MaxFanOut)
		})
	}
}

// BenchmarkFig4c_AccuracyVsConflict: DIVA under increasing constraint
// conflict on the coupled Pantheon variant.
func BenchmarkFig4c_AccuracyVsConflict(b *testing.B) {
	rel := dataset.PantheonConflict(1).Generate(benchRows, 42)
	occIdx, _ := rel.Schema().Index("OCCUPATION")
	type vf struct {
		value string
		n     int
	}
	var occs []vf
	for code, n := range rel.ValueFrequencies(occIdx) {
		if n >= 40 {
			occs = append(occs, vf{rel.Dict(occIdx).Value(code), n})
		}
	}
	for _, matched := range []bool{false, true} {
		label := "disjoint"
		if matched {
			label = "contested"
		}
		b.Run(label, func(b *testing.B) {
			var sigma constraint.Set
			for i := 0; i < 2 && i < len(occs); i++ {
				lo, hi := constraint.CoverageBounds(occs[i].n, 10, 0.3, 0.9)
				sigma = append(sigma, constraint.New("OCCUPATION", occs[i].value, lo, hi))
				indOcc := occs[i].value
				if !matched && i+2 < len(occs) {
					indOcc = occs[i+2].value
				}
				ind := dataset.IndustryOf(indOcc)
				indIdx, _ := rel.Schema().Index("INDUSTRY")
				if code, ok := rel.Dict(indIdx).Lookup(ind); ok {
					n := rel.Count(indIdx, code)
					ilo, ihi := constraint.CoverageBounds(n, 10, 0.3, 0.9)
					sigma = append(sigma, constraint.New("INDUSTRY", ind, ilo, ihi))
				}
			}
			runDIVABench(b, rel, sigma, 10, search.MaxFanOut)
		})
	}
}

// BenchmarkFig4d_AccuracyVsDistribution: DIVA per value distribution
// (Pop-Syn).
func BenchmarkFig4d_AccuracyVsDistribution(b *testing.B) {
	for _, dist := range []dataset.Distribution{dataset.Zipfian, dataset.Uniform, dataset.Gaussian} {
		rel := benchRelation(b, dataset.PopSyn(dist), benchRows)
		sigma := benchSigma(b, rel, 8, 10)
		b.Run(dist.String(), func(b *testing.B) {
			runDIVABench(b, rel, sigma, 10, search.MaxFanOut)
		})
	}
}

// fig5Algorithms runs the five series of the baseline comparison.
func fig5Algorithms(b *testing.B, rel *diva.Relation, sigma constraint.Set, k int) {
	b.Run("MinChoice", func(b *testing.B) { runDIVABench(b, rel, sigma, k, search.MinChoice) })
	b.Run("MaxFanOut", func(b *testing.B) { runDIVABench(b, rel, sigma, k, search.MaxFanOut) })
	b.Run("k-member", func(b *testing.B) {
		runBaselineBench(b, rel, &anon.KMember{Rng: rand.New(rand.NewPCG(1, 2))}, k)
	})
	b.Run("OKA", func(b *testing.B) {
		runBaselineBench(b, rel, &anon.OKA{Rng: rand.New(rand.NewPCG(1, 2))}, k)
	})
	b.Run("Mondrian", func(b *testing.B) {
		runBaselineBench(b, rel, &anon.Mondrian{}, k)
	})
}

// BenchmarkFig5a_AccuracyVsK and BenchmarkFig5b_RuntimeVsK: the Credit
// baseline comparison at the sweep's endpoints (accuracy is the reported
// metric; ns/op is the runtime series).
func BenchmarkFig5a_AccuracyVsK(b *testing.B) {
	rel := benchRelation(b, dataset.Credit(), dataset.CreditRows)
	for _, k := range []int{10, 50} {
		sigma := benchSigma(b, rel, 6, k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { fig5Algorithms(b, rel, sigma, k) })
	}
}

// BenchmarkFig5b_RuntimeVsK mirrors Fig5a; the figure reads ns/op.
func BenchmarkFig5b_RuntimeVsK(b *testing.B) {
	rel := benchRelation(b, dataset.Credit(), dataset.CreditRows)
	sigma := benchSigma(b, rel, 6, 30)
	b.Run("k=30", func(b *testing.B) { fig5Algorithms(b, rel, sigma, 30) })
}

// BenchmarkFig5c_AccuracyVsSize and BenchmarkFig5d_RuntimeVsSize: the
// Census size sweep at two scaled sizes.
func BenchmarkFig5c_AccuracyVsSize(b *testing.B) {
	for _, rows := range []int{1500, 4500} {
		rel := benchRelation(b, dataset.Census(), rows)
		sigma := benchSigma(b, rel, 8, 10)
		b.Run(fmt.Sprintf("R=%d", rows), func(b *testing.B) { fig5Algorithms(b, rel, sigma, 10) })
	}
}

// BenchmarkFig5d_RuntimeVsSize mirrors Fig5c; the figure reads ns/op.
func BenchmarkFig5d_RuntimeVsSize(b *testing.B) {
	rel := benchRelation(b, dataset.Census(), 3000)
	sigma := benchSigma(b, rel, 8, 10)
	b.Run("R=3000", func(b *testing.B) { fig5Algorithms(b, rel, sigma, 10) })
}
