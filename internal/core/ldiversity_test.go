package core_test

import (
	"context"
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/anon"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/metrics"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/search"
)

// diverseDiagRelation builds a relation with enough sensitive variety for
// l-diversity to be satisfiable.
func diverseDiagRelation(t testing.TB, n int) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "ETH", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rng := rand.New(rand.NewPCG(55, 66))
	eths := []string{"Caucasian", "Asian", "African", "Hispanic"}
	cities := []string{"Calgary", "Toronto", "Vancouver"}
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			eths[rng.IntN(len(eths))],
			cities[rng.IntN(len(cities))],
			"D"+strconv.Itoa(i%7), // cycling diagnoses: high local variety
		)
	}
	return rel
}

func TestDIVAWithLDiversity(t *testing.T) {
	rel := diverseDiagRelation(t, 120)
	sigma := constraint.Set{
		constraint.New("ETH", "Asian", 4, 60),
		constraint.New("ETH", "African", 4, 60),
	}
	crit := privacy.DistinctLDiversity{L: 3}
	res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
		K:         4,
		Strategy:  search.MaxFanOut,
		Rng:       testRng(),
		Criterion: crit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(rel, res, sigma, 4); err != nil {
		t.Fatal(err)
	}
	if ok, group := privacy.Satisfies(res.Output, crit); !ok {
		t.Fatalf("output group %v violates %s", group, crit.Name())
	}
}

func TestDIVAWithLDiversityUnsatisfiable(t *testing.T) {
	// Every tuple has the same diagnosis: no group can be 2-diverse.
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	for i := 0; i < 10; i++ {
		rel.MustAppendValues("x"+strconv.Itoa(i%3), "same")
	}
	_, err := core.Anonymize(context.Background(), rel, nil, core.Options{
		K:         2,
		Rng:       testRng(),
		Criterion: privacy.DistinctLDiversity{L: 2},
	})
	if err == nil {
		t.Fatal("uniform-sensitive relation passed 2-diversity")
	}
}

func TestKMemberWithLDiversity(t *testing.T) {
	rel := diverseDiagRelation(t, 90)
	km := &anon.KMember{Rng: testRng(), Criterion: privacy.DistinctLDiversity{L: 3}}
	out, err := baselineOnly(rel, km, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.IsKAnonymous(out, 4) {
		t.Fatal("not 4-anonymous")
	}
	if ok, group := privacy.Satisfies(out, privacy.DistinctLDiversity{L: 3}); !ok {
		t.Fatalf("group %v not 3-diverse", group)
	}
}

func TestKMemberRejectsNonMonotoneCriterion(t *testing.T) {
	rel := diverseDiagRelation(t, 30)
	km := &anon.KMember{Rng: testRng(), Criterion: privacy.NewTCloseness(rel, 0.3)}
	rows := make([]int, rel.Len())
	for i := range rows {
		rows[i] = i
	}
	if _, err := km.Partition(context.Background(), rel, rows, 3); err == nil {
		t.Fatal("k-member accepted a non-monotone criterion")
	}
}

func TestMondrianWithTCloseness(t *testing.T) {
	rel := diverseDiagRelation(t, 120)
	crit := privacy.NewTCloseness(rel, 0.45)
	m := &anon.Mondrian{Criterion: crit}
	out, err := baselineOnly(rel, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !metrics.IsKAnonymous(out, 4) {
		t.Fatal("not 4-anonymous")
	}
	// Verify t-closeness of the output relative to the *original*
	// distributions the criterion captured: partitions were only accepted
	// when both halves held.
	for _, g := range out.QIGroups() {
		if !crit.Holds(out, g) {
			t.Fatalf("output group of %d tuples violates %s", len(g), crit.Name())
		}
	}
}

func TestPublicLDiversityOption(t *testing.T) {
	rel := diverseDiagRelation(t, 80)
	// Exercised through the core driver to keep this package free of the
	// public façade; the façade's own test lives in the root package.
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{
		K:         4,
		Rng:       testRng(),
		Criterion: privacy.DistinctLDiversity{L: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := privacy.Satisfies(res.Output, privacy.DistinctLDiversity{L: 2}); !ok {
		t.Fatal("output not 2-diverse")
	}
}
