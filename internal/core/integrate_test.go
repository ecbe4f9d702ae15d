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
	"diva/internal/relation"
	"diva/internal/search"
)

// baselineByName runs a named baseline over the whole relation.
func baselineByName(t testing.TB, rel *relation.Relation, name string, k int) (*relation.Relation, error) {
	t.Helper()
	var p anon.Partitioner
	switch name {
	case "k-member":
		p = &anon.KMember{Rng: testRng()}
	case "oka":
		p = &anon.OKA{Rng: testRng()}
	case "mondrian":
		p = &anon.Mondrian{}
	default:
		t.Fatalf("unknown baseline %q", name)
	}
	return baselineOnly(rel, p, k)
}

// baselineOnly anonymizes all of rel with p: a run with Σ = ∅.
func baselineOnly(rel *relation.Relation, p anon.Partitioner, k int) (*relation.Relation, error) {
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: k, Rng: testRng(), Anonymizer: p})
	return res.Output, err
}

// skewedRelation builds a relation where one value dominates, so that the
// off-the-shelf anonymizer's output naturally preserves many occurrences of
// it and a tight upper bound forces the Integrate repair.
func skewedRelation(t testing.TB, n int) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "GRP", Role: relation.QI},
		relation.Attribute{Name: "SUB", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rng := rand.New(rand.NewPCG(100, 200))
	for i := 0; i < n; i++ {
		grp := "common"
		if rng.IntN(10) == 0 {
			grp = "rare" + strconv.Itoa(rng.IntN(3))
		}
		rel.MustAppendValues(grp, "s"+strconv.Itoa(rng.IntN(4)), "v")
	}
	return rel
}

// TestIntegrateRepairsUpperBound forces the repair path: "common" occurs in
// ~90% of tuples, but Σ allows at most 30 preserved occurrences. The
// diverse clustering preserves within bounds; the k-member remainder
// preserves many more (clusters of common tuples agree on GRP), so
// Integrate must suppress them.
func TestIntegrateRepairsUpperBound(t *testing.T) {
	rel := skewedRelation(t, 200)
	grp, _ := rel.Schema().Index("GRP")
	code, _ := rel.Dict(grp).Lookup("common")
	freq := rel.Count(grp, code)
	if freq < 150 {
		t.Fatalf("test data skew broke: %d common", freq)
	}
	sigma := constraint.Set{constraint.New("GRP", "common", 10, 30)}
	res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{K: 5, Strategy: search.MinChoice, Rng: testRng()})
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedCells == 0 {
		t.Fatal("expected Integrate repairs, got none")
	}
	if err := core.Verify(rel, res, sigma, 5); err != nil {
		t.Fatal(err)
	}
	b, _ := sigma[0].Bound(res.Output)
	if n := b.CountIn(res.Output); n < 10 || n > 30 {
		t.Fatalf("post-repair count %d outside [10, 30]", n)
	}
}

// TestIntegrateKeepsKAnonymityAfterRepair verifies repairs suppress whole
// QI-groups (never splitting one).
func TestIntegrateKeepsKAnonymityAfterRepair(t *testing.T) {
	rel := skewedRelation(t, 300)
	sigma := constraint.Set{constraint.New("GRP", "common", 10, 40)}
	for _, k := range []int{3, 7, 12} {
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{K: k, Strategy: search.MaxFanOut, Rng: testRng()})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !metrics.IsKAnonymous(res.Output, k) {
			t.Fatalf("k=%d: repair broke k-anonymity", k)
		}
	}
}

// TestAnonymizeEmptyRelation: nothing to do, but nothing to fail either.
func TestAnonymizeEmptyRelation(t *testing.T) {
	rel := relation.New(paperRelation(t).Schema())
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: 3, Rng: testRng()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 0 {
		t.Fatal("empty input produced tuples")
	}
}

// TestAnonymizeRejectsBadK covers parameter validation.
func TestAnonymizeRejectsBadK(t *testing.T) {
	rel := paperRelation(t)
	if _, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: 0, Rng: testRng()}); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: 11, Rng: testRng()}); err == nil {
		t.Fatal("k > |R| accepted")
	}
}

// TestAnonymizeRejectsInvalidConstraints covers constraint validation.
func TestAnonymizeRejectsInvalidConstraints(t *testing.T) {
	rel := paperRelation(t)
	bad := constraint.Set{constraint.New("ETH", "Asian", 5, 2)}
	if _, err := core.Anonymize(context.Background(), rel, bad, core.Options{K: 2, Rng: testRng()}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
	unknown := constraint.Set{constraint.New("NOPE", "x", 1, 2)}
	if _, err := core.Anonymize(context.Background(), rel, unknown, core.Options{K: 2, Rng: testRng()}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

// TestAnonymizeRemainderSmallerThanK: a coloring that would strand fewer
// than k tuples for the off-the-shelf step must be rejected in favour of
// one that does not (or the run must fail) — never an output that silently
// violates k-anonymity.
func TestAnonymizeRemainderSmallerThanK(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
	)
	rel := relation.New(schema)
	// 5 tuples of value "t", 2 of value "u"; k = 4. A clustering taking 4
	// "t" tuples leaves 3 < k; taking all 5 "t" plus... the only
	// acceptable outcomes cover all 7 rows or fail.
	for i := 0; i < 5; i++ {
		rel.MustAppendValues("t", "b"+strconv.Itoa(i))
	}
	rel.MustAppendValues("u", "b0")
	rel.MustAppendValues("u", "b1")
	sigma := constraint.Set{constraint.New("A", "t", 4, 5)}
	res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{K: 4, Strategy: search.MinChoice, Rng: testRng()})
	if err != nil {
		return // failing is acceptable; outputting a bad relation is not
	}
	if !metrics.IsKAnonymous(res.Output, 4) {
		t.Fatal("output violates k-anonymity")
	}
	if err := core.Verify(rel, res, sigma, 4); err != nil {
		t.Fatal(err)
	}
}

// Property-style end-to-end test: random relations, random feasible
// constraint sets, all strategies — every successful run returns a
// k-anonymous suppression of R satisfying Σ.
func TestAnonymizeEndToEndProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 88))
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	for trial := 0; trial < 25; trial++ {
		rel := relation.New(schema)
		n := 12 + rng.IntN(60)
		for i := 0; i < n; i++ {
			rel.MustAppendValues(
				"a"+strconv.Itoa(rng.IntN(3)),
				"b"+strconv.Itoa(rng.IntN(4)),
				"c"+strconv.Itoa(rng.IntN(2)),
				"s"+strconv.Itoa(rng.IntN(5)),
			)
		}
		k := 2 + rng.IntN(3)
		// Feasible constraints: lower = k on values with support ≥ 2k.
		var sigma constraint.Set
		for _, attr := range []string{"A", "B"} {
			idx, _ := schema.Index(attr)
			prefix := map[string]string{"A": "a", "B": "b"}[attr]
			for v := 0; v < 4 && len(sigma) < 3; v++ {
				value := prefix + strconv.Itoa(v)
				code, ok := rel.Dict(idx).Lookup(value)
				if !ok {
					continue
				}
				freq := rel.Count(idx, code)
				if freq < 2*k {
					continue
				}
				sigma = append(sigma, constraint.New(attr, value, k, freq))
			}
		}
		strat := []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut}[rng.IntN(3)]
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{K: k, Strategy: strat, Rng: rng})
		if err != nil {
			// The random instance may genuinely be unsatisfiable (e.g. the
			// Accept rule can't leave a legal remainder); that is a valid
			// outcome — but it must be reported as ErrNoDiverseClustering.
			continue
		}
		if err := core.Verify(rel, res, sigma, k); err != nil {
			t.Fatalf("trial %d (k=%d, strat=%s, n=%d): %v\nsigma:\n%s", trial, k, strat, n, err, sigma)
		}
	}
}

// TestIntegrateRecountsAfterRepair pins the order of Integrate's repairs.
// Σ lists A = (X[x] Y[y], 5, 10) before B = (X[x], 0, 25); R holds 40
// (x, y) rows, 20 (x, z) rows and 40 (w, v) rows, so B's 60 occurrences
// exceed its bound before any repair. Repairing A suppresses X across Rk's
// (x, y) group, which removes B's occurrences there too and brings B under
// its bound, so B repairs nothing: no (x, z) row loses its X. The repaired
// count and the output are pinned to the values of the per-constraint scans
// Integrate used before it counted Σ in one pass.
func TestIntegrateRecountsAfterRepair(t *testing.T) {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "X", Role: relation.QI},
		relation.Attribute{Name: "Y", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	))
	for i, g := range []struct {
		x, y string
		n    int
	}{{"x", "y", 40}, {"x", "z", 20}, {"w", "v", 40}} {
		for j := 0; j < g.n; j++ {
			rel.MustAppendValues(g.x, g.y, "s"+strconv.Itoa((i+j)%3))
		}
	}
	sigma := constraint.Set{
		constraint.NewMulti([]string{"X", "Y"}, []string{"x", "y"}, 5, 10),
		constraint.New("X", "x", 0, 25),
	}
	if b, _ := sigma[1].Bound(rel); b.CountIn(rel) <= b.Upper {
		t.Fatalf("B holds in R already; the instance no longer needs A's repair")
	}
	res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{K: 5, Strategy: search.MinChoice, Rng: testRng()})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(rel, res, sigma, 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Output.Len(); i++ {
		if res.Output.Value(i, 0) == relation.Star && res.Output.Value(i, 1) == "z" {
			t.Fatalf("output row %d: B repaired an (x, z) row although A's repair had already met its bound", i)
		}
	}
	if res.RepairedCells != 35 {
		t.Fatalf("RepairedCells = %d, want 35 (X across Rk's 35 (x, y) rows)", res.RepairedCells)
	}
	if got, want := digestResult(res), "c6a0222292c320f0ab91096fd8db5e4ceaa61683b971a60f00fc3f3aeb71a358"; got != want {
		t.Fatalf("output digest %s, want %s", got, want)
	}
}
