// Census: diverse publishing of a large demographic relation.
//
// A data custodian wants to publish a k-anonymous census extract for
// third-party analysis while guaranteeing that minority demographic groups
// stay visible: plain k-anonymization routinely suppresses exactly the
// attribute values that characterize small groups, biasing downstream
// analysis (the motivation of the paper's §1).
//
// The example generates a census-profile relation, derives proportional
// representation constraints over its demographic attributes, runs DIVA,
// and contrasts the result with a plain k-member anonymization: the
// baseline violates the diversity requirements that DIVA guarantees, at a
// comparable suppression cost.
//
// Run with: go run ./examples/census [-rows 20000] [-k 10] [-sigma 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"

	"diva"
	"diva/internal/constraint"
	"diva/internal/dataset"
)

func main() {
	rows := flag.Int("rows", 20000, "census rows to generate")
	k := flag.Int("k", 10, "privacy parameter")
	nSigma := flag.Int("sigma", 8, "number of diversity constraints")
	flag.Parse()

	fmt.Printf("generating census profile (%d rows)...\n", *rows)
	rel := dataset.Census().Generate(*rows, 2021)

	// Proportional representation constraints over the demographic QI
	// attributes: each selected value must keep at least 10% of its
	// occurrences visible (and at least k, to avoid tokenism).
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Attrs: []string{"SEX", "RACE", "EDUCATION", "REGION"},
		Count: *nSigma,
		K:     *k,
		Rng:   rand.New(rand.NewPCG(11, 13)),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiversity constraints (|Σ| = %d):\n%s\n", len(sigma), sigma)

	cf, err := diva.ConflictRate(rel, sigma)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nconflict rate cf(Σ) = %.3f\n", cf)

	// DIVA with the paper's best strategy.
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{
		K:        *k,
		Strategy: diva.MaxFanOut,
		Seed:     99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDIVA (MaxFanOut): accuracy=%.4f suppressed-cells=%d disc=%d coloring-steps=%d repairs=%d\n",
		diva.Accuracy(res.Output), diva.SuppressionLoss(res.Output),
		diva.Discernibility(res.Output, *k), res.Stats.Steps, res.RepairedCells)
	if ok, _ := sigma.SatisfiedBy(res.Output); !ok {
		log.Fatal("DIVA output violates Σ (bug)")
	}
	fmt.Println("DIVA output satisfies every diversity constraint")

	// Plain k-member for contrast.
	base, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: *k, Seed: 99, Baseline: diva.KMember})
	if err != nil {
		log.Fatal(err)
	}
	plain := base.Output
	fmt.Printf("\nk-member baseline: accuracy=%.4f suppressed-cells=%d disc=%d\n",
		diva.Accuracy(plain), diva.SuppressionLoss(plain), diva.Discernibility(plain, *k))
	viol, err := sigma.Violations(plain)
	if err != nil {
		log.Fatal(err)
	}
	if len(viol) == 0 {
		fmt.Println("baseline happens to satisfy Σ on this draw")
	} else {
		fmt.Printf("baseline violates %d of %d constraints:\n", len(viol), len(sigma))
		for _, v := range viol {
			fmt.Println("  ", v)
		}
	}
}
