package core_test

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/hierarchy"
	"diva/internal/metrics"
	"diva/internal/relation"
	"diva/internal/search"
)

func geoSchemaRelation(t testing.TB) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	for _, row := range [][]string{
		{"Vancouver", "34", "Flu"},
		{"Victoria", "37", "Cold"},
		{"Calgary", "61", "Flu"},
		{"Edmonton", "65", "Flu"},
	} {
		rel.MustAppendValues(row...)
	}
	return rel
}

func geoHierarchies(t testing.TB) hierarchy.Set {
	t.Helper()
	cty, err := hierarchy.NewBuilder("CTY").
		Add(relation.Star, "West").
		Add("West", "BC", "AB").
		Add("BC", "Vancouver", "Victoria").
		Add("AB", "Calgary", "Edmonton").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.Intervals("AGE", 0, 99, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	return hierarchy.Set{"CTY": cty, "AGE": age}
}

func TestSuppressGeneralizeUsesLCA(t *testing.T) {
	rel := geoSchemaRelation(t)
	hs := geoHierarchies(t)
	out := core.SuppressGeneralize(rel, [][]int{{0, 1}, {2, 3}}, hs)
	if out.Len() != 4 {
		t.Fatalf("len = %d", out.Len())
	}
	// Cluster {Vancouver, Victoria} generalizes CTY to BC, AGE to [30-39].
	if got := out.Value(0, 0); got != "BC" {
		t.Fatalf("CTY = %q, want BC", got)
	}
	if got := out.Value(0, 1); got != "[30-39]" {
		t.Fatalf("AGE = %q, want [30-39]", got)
	}
	// Cluster {Calgary, Edmonton} generalizes CTY to AB, AGE to [60-69].
	if got := out.Value(2, 0); got != "AB" {
		t.Fatalf("CTY = %q, want AB", got)
	}
	if got := out.Value(3, 1); got != "[60-69]" {
		t.Fatalf("AGE = %q, want [60-69]", got)
	}
	// Sensitive attribute untouched.
	if out.Value(0, 2) != "Flu" {
		t.Fatal("sensitive value changed")
	}
	// Still a 2-anonymous relation: each cluster shares one QI vector.
	if !metrics.IsKAnonymous(out, 2) {
		t.Fatal("generalized output not 2-anonymous")
	}
}

func TestSuppressGeneralizeCrossBranchFallsToStarOrRoot(t *testing.T) {
	rel := geoSchemaRelation(t)
	hs := geoHierarchies(t)
	out := core.SuppressGeneralize(rel, [][]int{{0, 2}}, hs)
	// Vancouver and Calgary meet at West (the level under ★).
	if got := out.Value(0, 0); got != "West" {
		t.Fatalf("CTY = %q, want West", got)
	}
	// Ages 34 and 61 only meet at ★ within a 2-level interval hierarchy…
	// level 2 covers [0-99], which contains both.
	if got := out.Value(0, 1); got != "[0-99]" {
		t.Fatalf("AGE = %q, want [0-99]", got)
	}
}

func TestSuppressGeneralizeWithoutHierarchiesEqualsSuppress(t *testing.T) {
	rel := geoSchemaRelation(t)
	clusters := [][]int{{0, 1}, {2, 3}}
	gen := core.SuppressGeneralize(rel, clusters, nil)
	sup := core.Suppress(rel, clusters)
	if gen.Len() != sup.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < gen.Len(); i++ {
		for a := 0; a < gen.Schema().Len(); a++ {
			if gen.Value(i, a) != sup.Value(i, a) {
				t.Fatalf("cell (%d,%d): %q vs %q", i, a, gen.Value(i, a), sup.Value(i, a))
			}
		}
	}
}

func TestSuppressGeneralizeNCPBelowSuppression(t *testing.T) {
	rel := geoSchemaRelation(t)
	hs := geoHierarchies(t)
	clusters := [][]int{{0, 1}, {2, 3}}
	gen := core.SuppressGeneralize(rel, clusters, hs)
	sup := core.Suppress(rel, clusters)
	ncpGen := hierarchy.NCP(gen, hs)
	ncpSup := hierarchy.NCP(sup, hs)
	if ncpGen >= ncpSup {
		t.Fatalf("generalization NCP %v not below suppression NCP %v", ncpGen, ncpSup)
	}
	if ncpGen <= 0 {
		t.Fatalf("generalization NCP %v should be positive (information was lost)", ncpGen)
	}
}

func TestSuppressGeneralizeUniformClusterLossless(t *testing.T) {
	schema := relation.MustSchema(relation.Attribute{Name: "CTY", Role: relation.QI})
	rel := relation.New(schema)
	rel.MustAppendValues("Vancouver")
	rel.MustAppendValues("Vancouver")
	out := core.SuppressGeneralize(rel, [][]int{{0, 1}}, geoHierarchies(t))
	if out.Value(0, 0) != "Vancouver" {
		t.Fatal("uniform cluster was generalized")
	}
}

// raceHierarchy generalizes the census RACE attribute: the four non-white
// values to Nonwhite, and Nonwhite and White to ★.
func raceHierarchy(t testing.TB) *hierarchy.Hierarchy {
	t.Helper()
	race, err := hierarchy.NewBuilder("RACE").
		Add(relation.Star, "White", "Nonwhite").
		Add("Nonwhite", "Black", "Asian-Pac-Islander", "Amer-Indian", "Other").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return race
}

// TestGeneralizedRunKeepsCardinality: a generalized run renders LCA values
// such as Nonwhite into dictionaries it shares with its input, and
// Mondrian's categorical widths read their Cardinality. Those values must
// not count, so the input's cardinalities are the same after the run, and
// a second identical run over the same relation publishes the same
// relation as the first.
func TestGeneralizedRunKeepsCardinality(t *testing.T) {
	const rows, k = 3000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 20210323)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: 8,
		K:     k,
		Rng:   rand.New(rand.NewPCG(0x51a3, 0x51a3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	card := func() []int {
		out := make([]int, rel.Schema().Len())
		for a := range out {
			out[a] = rel.Dict(a).Cardinality()
		}
		return out
	}
	before := card()
	run := func() *core.Result {
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:           k,
			Strategy:    search.MinChoice,
			Rng:         rand.New(rand.NewPCG(7, 7)),
			Hierarchies: hierarchy.Set{"RACE": raceHierarchy(t)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	race, _ := rel.Schema().Index("RACE")
	nonwhite, ok := rel.Dict(race).Lookup("Nonwhite")
	if !ok || first.Output.Count(race, nonwhite) == 0 {
		t.Fatal("the run rendered no Nonwhite cell: nothing was generalized")
	}
	if after := card(); !slices.Equal(after, before) {
		t.Fatalf("dictionary cardinalities %v after a generalized run, %v before", after, before)
	}
	if !sameRelation(run().Output, first.Output) {
		t.Fatal("a second identical generalized run published a different relation")
	}
}
