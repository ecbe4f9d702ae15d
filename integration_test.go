package diva_test

// Integration tests exercising whole pipelines across packages: dataset
// generation → constraint generation → DIVA → metrics → CSV, plus failure
// injection at every stage boundary.

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"diva"
	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/metrics"
	"diva/internal/search"
)

// TestPipelinePopSyn runs the full pipeline on every distribution and
// strategy at small scale: generate, derive constraints, anonymize, verify
// all three output conditions, round-trip through CSV.
func TestPipelinePopSyn(t *testing.T) {
	for _, dist := range []dataset.Distribution{dataset.Zipfian, dataset.Uniform, dataset.Gaussian} {
		for _, strat := range []diva.Strategy{diva.Basic, diva.MinChoice, diva.MaxFanOut} {
			t.Run(dist.String()+"/"+strat.String(), func(t *testing.T) {
				rel := dataset.PopSyn(dist).Generate(1500, 7)
				sigma, err := constraint.Proportional(rel, constraint.GenOptions{
					Count: 5,
					K:     6,
					Rng:   rand.New(rand.NewPCG(3, uint64(dist))),
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{
					K: 6, Strategy: strat, Seed: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := diva.Verify(rel, res, sigma, 6); err != nil {
					t.Fatal(err)
				}

				// CSV round trip preserves the anonymized relation exactly.
				var buf bytes.Buffer
				if err := diva.WriteCSV(&buf, res.Output); err != nil {
					t.Fatal(err)
				}
				back, err := diva.ReadCSV(strings.NewReader(buf.String()), res.Output.Schema())
				if err != nil {
					t.Fatal(err)
				}
				if back.Len() != res.Output.Len() {
					t.Fatalf("CSV round trip changed cardinality: %d vs %d", back.Len(), res.Output.Len())
				}
				ok, err := sigma.SatisfiedBy(back)
				if err != nil || !ok {
					t.Fatalf("re-read relation violates Σ (err=%v)", err)
				}
			})
		}
	}
}

// TestPipelineConstraintClasses drives all three constraint generator
// classes through DIVA.
func TestPipelineConstraintClasses(t *testing.T) {
	rel := dataset.PopSyn(dataset.Uniform).Generate(2000, 9)
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 9)) }
	gens := map[string]func() (constraint.Set, error){
		"proportional": func() (constraint.Set, error) {
			return constraint.Proportional(rel, constraint.GenOptions{Count: 4, K: 5, Rng: rng()})
		},
		"min-frequency": func() (constraint.Set, error) {
			return constraint.MinimumFrequency(rel, constraint.GenOptions{Count: 4, K: 5, Rng: rng()}, 0.1)
		},
		"average": func() (constraint.Set, error) {
			return constraint.Average(rel, constraint.GenOptions{Count: 4, K: 5, Rng: rng()})
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			sigma, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 2})
			if err != nil {
				t.Skipf("class %s produced an unsatisfiable set on this draw: %v", name, err)
			}
			if err := diva.Verify(rel, res, sigma, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPipelineAllBaselinesAgainstConstraints quantifies the motivating
// claim: constraint-blind baselines violate diversity constraints that
// DIVA guarantees, on at least some workloads.
func TestPipelineAllBaselinesAgainstConstraints(t *testing.T) {
	rel := dataset.PopSyn(dataset.Zipfian).Generate(3000, 4)
	// Demand 85% visibility of two minority values: baselines suppress
	// minority cells freely, DIVA must keep them.
	var sigma diva.Constraints
	eth, _ := rel.Schema().Index("ETH")
	freqs := rel.ValueFrequencies(eth)
	type vf struct {
		code uint32
		n    int
	}
	var all []vf
	for code, n := range freqs {
		all = append(all, vf{code, n})
	}
	// Two smallest values with workable support.
	for len(all) > 0 && len(sigma) < 2 {
		minIdx := 0
		for i := range all {
			if all[i].n < all[minIdx].n {
				minIdx = i
			}
		}
		v := all[minIdx]
		all = append(all[:minIdx], all[minIdx+1:]...)
		if v.n < 30 {
			continue
		}
		lo := v.n * 85 / 100
		sigma = append(sigma, diva.NewConstraint("ETH", rel.Dict(eth).Value(v.code), lo, v.n))
	}
	if len(sigma) < 2 {
		t.Fatal("workload construction failed")
	}

	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 8, Strategy: diva.MaxFanOut, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := sigma.SatisfiedBy(res.Output); !ok {
		t.Fatal("DIVA violated its own constraints")
	}

	violations := 0
	for _, b := range []diva.Baseline{diva.KMember, diva.OKA, diva.Mondrian} {
		res, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 8, Seed: 6, Baseline: b})
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := sigma.SatisfiedBy(res.Output); !ok {
			violations++
		}
	}
	if violations == 0 {
		t.Log("note: all baselines satisfied Σ on this draw (allowed, but the workload aims otherwise)")
	}
}

// TestFailureInjection covers the error surface across stage boundaries.
func TestFailureInjection(t *testing.T) {
	rel := dataset.Credit().Generate(200, 3)

	t.Run("k larger than relation", func(t *testing.T) {
		_, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 500, Seed: 1})
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("constraint over unknown attribute", func(t *testing.T) {
		sigma := diva.Constraints{diva.NewConstraint("GHOST", "x", 1, 5)}
		if _, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 1}); err == nil {
			t.Fatal("unknown attribute accepted")
		}
	})
	t.Run("unseen value with positive floor", func(t *testing.T) {
		sigma := diva.Constraints{diva.NewConstraint("SEX", "Other", 1, 5)}
		_, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 1})
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unseen value with zero floor", func(t *testing.T) {
		sigma := diva.Constraints{diva.NewConstraint("SEX", "Other", 0, 5)}
		res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := diva.Verify(rel, res, sigma, 5); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("upper bound below k", func(t *testing.T) {
		// A QI target needing 1–3 preserved occurrences cannot be met with
		// k = 5 clusters (any preserved cluster has ≥ 5 tuples).
		sigma := diva.Constraints{diva.NewConstraint("SEX", "Male", 1, 3)}
		_, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 1})
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("tiny search budget", func(t *testing.T) {
		sigma := diva.Constraints{
			diva.NewConstraint("SEX", "Male", 10, 200),
			diva.NewConstraint("HOUSING", "Own", 10, 200),
		}
		// MaxSteps = 1 allows one assignment; two constraints need two.
		_, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 1, MaxSteps: 1})
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("malformed CSV", func(t *testing.T) {
		if _, err := diva.ReadAnnotatedCSV(strings.NewReader("A:wizard\nx\n")); err == nil {
			t.Fatal("bad role accepted")
		}
	})
}

// TestConflictSweepInvariant: across the conflict knob, DIVA either
// satisfies Σ or fails loudly; it never emits a violating relation.
func TestConflictSweepInvariant(t *testing.T) {
	rel := dataset.PantheonConflict(0.9).Generate(3000, 8)
	for _, cf := range []float64{0, 0.5, 1} {
		rng := rand.New(rand.NewPCG(2, uint64(cf*10)))
		sigma, err := constraint.WithConflict(rel, "OCCUPATION", "CONTINENT", constraint.GenOptions{
			Count: 4, K: 5, Rng: rng,
		}, cf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 5, Seed: 3})
		if err != nil {
			continue
		}
		if ok, _ := sigma.SatisfiedBy(res.Output); !ok {
			t.Fatalf("cf=%v: output violates Σ", cf)
		}
		if !metrics.IsKAnonymous(res.Output, 5) {
			t.Fatalf("cf=%v: output not 5-anonymous", cf)
		}
	}
}

// TestStrategiesAgreeOnSatisfiability: on a batch of random instances, if
// one strategy finds a diverse clustering, the others must too (they search
// the same space exhaustively within budget).
func TestStrategiesAgreeOnSatisfiability(t *testing.T) {
	rel := dataset.PopSyn(dataset.Gaussian).Generate(800, 13)
	for trial := 0; trial < 6; trial++ {
		sigma, err := constraint.Proportional(rel, constraint.GenOptions{
			Count: 3, K: 4, Rng: rand.New(rand.NewPCG(uint64(trial), 5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		results := map[search.Strategy]bool{}
		for _, strat := range []diva.Strategy{diva.Basic, diva.MinChoice, diva.MaxFanOut} {
			_, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 4, Strategy: strat, Seed: 21})
			results[strat] = err == nil
		}
		if results[diva.Basic] != results[diva.MinChoice] || results[diva.MinChoice] != results[diva.MaxFanOut] {
			t.Fatalf("trial %d: strategies disagree on satisfiability: %v", trial, results)
		}
	}
}
