// Healthcare: the paper's running example (Tables 1–3) end to end.
//
// It builds the ten-patient medical relation of Table 1, shows what a plain
// 3-anonymization loses (Table 2: the African ethnicity and the female
// Caucasians disappear), then runs DIVA with the diversity constraints of
// Example 3.1 and shows that the published relation keeps every group
// visible (Table 3).
//
// Run with: go run ./examples/healthcare
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"diva"
)

func main() {
	rel := buildTable1()
	fmt.Println("Table 1 — original medical records:")
	printRelation(rel)

	// Plain k-anonymization (what Table 2 shows): k = 3, no diversity.
	base, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 3, Seed: 7, Baseline: diva.KMember})
	if err != nil {
		log.Fatal(err)
	}
	plain := base.Output
	fmt.Println("\nPlain 3-anonymous relation (Table 2 shape):")
	printRelation(plain)
	reportVisibility(plain, "plain 3-anonymization")

	// DIVA: k = 2 with Σ = {σ1, σ2, σ3} of Example 3.1.
	sigma := diva.Constraints{
		diva.NewConstraint("ETH", "Asian", 2, 5),     // σ1
		diva.NewConstraint("ETH", "African", 1, 3),   // σ2
		diva.NewConstraint("CTY", "Vancouver", 2, 4), // σ3
	}
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Strategy: diva.MinChoice, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nDIVA 2-anonymous and diverse relation (Table 3 shape):")
	printRelation(res.Output)
	reportVisibility(res.Output, "DIVA")

	fmt.Printf("\ncoloring search: %d steps, %d backtracks\n", res.Stats.Steps, res.Stats.Backtracks)
	if err := diva.Verify(rel, res, sigma, 2); err != nil {
		log.Fatal("verification failed: ", err)
	}
	fmt.Println("verified: R ⊑ R′, 2-anonymous, satisfies Σ")
}

func buildTable1() *diva.Relation {
	schema := diva.MustSchema(
		diva.Attribute{Name: "GEN", Role: diva.QI},
		diva.Attribute{Name: "ETH", Role: diva.QI},
		diva.Attribute{Name: "AGE", Role: diva.QI, Kind: diva.Numeric},
		diva.Attribute{Name: "PRV", Role: diva.QI},
		diva.Attribute{Name: "CTY", Role: diva.QI},
		diva.Attribute{Name: "DIAG", Role: diva.Sensitive},
	)
	rel := diva.NewRelation(schema)
	for _, row := range [][]string{
		{"Female", "Caucasian", "80", "AB", "Calgary", "Hypertension"},
		{"Female", "Caucasian", "32", "AB", "Calgary", "Tuberculosis"},
		{"Male", "Caucasian", "59", "AB", "Calgary", "Osteoarthritis"},
		{"Male", "Caucasian", "46", "MB", "Winnipeg", "Migraine"},
		{"Male", "African", "32", "MB", "Winnipeg", "Hypertension"},
		{"Male", "African", "43", "BC", "Vancouver", "Seizure"},
		{"Male", "Caucasian", "35", "BC", "Vancouver", "Hypertension"},
		{"Female", "Asian", "58", "BC", "Vancouver", "Seizure"},
		{"Female", "Asian", "63", "MB", "Winnipeg", "Influenza"},
		{"Female", "Asian", "71", "BC", "Vancouver", "Migraine"},
	} {
		rel.MustAppendValues(row...)
	}
	return rel
}

func printRelation(rel *diva.Relation) {
	schema := rel.Schema()
	widths := make([]int, schema.Len())
	for i := 0; i < schema.Len(); i++ {
		widths[i] = len(schema.Attr(i).Name)
	}
	for i := 0; i < rel.Len(); i++ {
		for a, v := range rel.Values(i) {
			if len(v) > widths[a] {
				widths[a] = len(v)
			}
		}
	}
	var b strings.Builder
	for i := 0; i < schema.Len(); i++ {
		fmt.Fprintf(&b, "%-*s  ", widths[i], schema.Attr(i).Name)
	}
	fmt.Println(strings.TrimRight(b.String(), " "))
	for i := 0; i < rel.Len(); i++ {
		b.Reset()
		for a, v := range rel.Values(i) {
			fmt.Fprintf(&b, "%-*s  ", widths[a], v)
		}
		fmt.Println(strings.TrimRight(b.String(), " "))
	}
}

// reportVisibility counts how many tuples keep each ethnicity visible.
func reportVisibility(rel *diva.Relation, label string) {
	eth, _ := rel.Schema().Index("ETH")
	counts := map[string]int{}
	for i := 0; i < rel.Len(); i++ {
		counts[rel.Value(i, eth)]++
	}
	fmt.Printf("visible ethnicities after %s: ", label)
	for _, v := range []string{"Caucasian", "African", "Asian", diva.Star} {
		fmt.Printf("%s=%d ", v, counts[v])
	}
	fmt.Println()
}
