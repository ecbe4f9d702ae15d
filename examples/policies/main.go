// Policies: privacy criteria beyond k-anonymity, and generalization-aware
// loss accounting.
//
// A hospital publishes patient records under three regimes of increasing
// strength — plain k-anonymity, k-anonymity with diversity constraints, and
// the same plus distinct l-diversity on the sensitive diagnosis — and
// reports suppression loss and the normalized certainty penalty (NCP) under
// a geographic generalization hierarchy for each regime. The example shows
// the paper's extension hook in action: DIVA's clustering criteria swap
// from k-anonymity alone to composite criteria without touching the
// algorithm.
//
// Run with: go run ./examples/policies
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"diva"
	"diva/internal/dataset"
	"diva/internal/hierarchy"
	"diva/internal/relation"
)

func main() {
	// A 4,000-person synthetic population with realistic skew.
	rel := dataset.PopSyn(dataset.Zipfian).Generate(4000, 2024)

	// Floors keep small groups visible: at least 85% of each minority
	// group's records must survive anonymization with their characteristic
	// value intact — far more than a constraint-blind anonymizer preserves.
	sigma := diva.Constraints{
		floorConstraint(rel, "ETH", "Indigenous", 0.85),
		floorConstraint(rel, "ETH", "MiddleEastern", 0.85),
		floorConstraint(rel, "PRV", "PE", 0.85),
	}

	// The provinces' cities generalize province-wise; NCP uses this
	// hierarchy to price suppressed geography cells fairly.
	hset := hierarchy.Set{"CTY": cityHierarchy(rel)}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "regime\tk-anon\tΣ ok\t2-diverse\tstars\taccuracy\tNCP")

	report := func(name string, out *diva.Relation, sigmaChecked diva.Constraints) {
		sigmaOK := true
		if sigmaChecked != nil {
			ok, err := sigmaChecked.SatisfiedBy(out)
			if err != nil {
				log.Fatal(err)
			}
			sigmaOK = ok
		}
		fmt.Fprintf(w, "%s\t%t\t%t\t%t\t%d\t%.4f\t%.4f\n",
			name,
			diva.IsKAnonymous(out, 8),
			sigmaOK,
			diva.IsLDiverse(out, 2),
			diva.SuppressionLoss(out),
			diva.Accuracy(out),
			hierarchy.NCP(out, hset),
		)
	}

	// Regime 1: plain 8-anonymity (k-member).
	plain, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 8, Seed: 1, Baseline: diva.KMember})
	if err != nil {
		log.Fatal(err)
	}
	report("k-anonymity", plain.Output, sigma)

	// Regime 2: 8-anonymity + diversity constraints (DIVA).
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 8, Strategy: diva.MaxFanOut, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("+ diversity Σ", res.Output, sigma)

	// Regime 3: the same plus distinct 2-diversity on DIAG and OCC.
	res2, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{
		K: 8, Strategy: diva.MaxFanOut, Seed: 1, LDiversity: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("+ 2-diversity", res2.Output, sigma)

	w.Flush()
	fmt.Println("\nEach added guarantee costs suppression; NCP prices geography cells by")
	fmt.Println("how much of the city hierarchy a published value still pins down.")
}

// floorConstraint demands that at least frac of the value's occurrences
// stay visible.
func floorConstraint(rel *diva.Relation, attr, value string, frac float64) diva.Constraint {
	idx, ok := rel.Schema().Index(attr)
	if !ok {
		log.Fatalf("no attribute %s", attr)
	}
	code, ok := rel.Dict(idx).Lookup(value)
	if !ok {
		log.Fatalf("no value %s[%s]", attr, value)
	}
	freq := 0
	for i := 0; i < rel.Len(); i++ {
		if rel.Code(i, idx) == code {
			freq++
		}
	}
	lo := int(float64(freq) * frac)
	if lo < 1 {
		lo = 1
	}
	return diva.NewConstraint(attr, value, lo, freq)
}

// cityHierarchy builds CTY -> PRV -> ★ from the generated city names
// ("ON-city3" belongs to province "ON").
func cityHierarchy(rel *diva.Relation) *hierarchy.Hierarchy {
	cty, _ := rel.Schema().Index("CTY")
	prv, _ := rel.Schema().Index("PRV")
	b := hierarchy.NewBuilder("CTY")
	provinces := map[string]bool{}
	for i := 0; i < rel.Len(); i++ {
		b.Add(rel.Value(i, prv), rel.Value(i, cty))
		provinces[rel.Value(i, prv)] = true
	}
	for p := range provinces {
		b.Add(relation.Star, p)
	}
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return h
}
