package constraint

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"diva/internal/dataset"
	"diva/internal/relation"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// refuteRelation holds every combination of two sexes, two cities and two
// ethnicities on QI attributes, with a sensitive diagnosis.
func refuteRelation(t testing.TB) *relation.Relation {
	t.Helper()
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "ETH", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	for _, gen := range []string{"M", "F"} {
		for _, cty := range []string{"V", "T"} {
			for _, eth := range []string{"A", "B"} {
				for _, diag := range []string{"flu", "cold"} {
					rel.MustAppendValues(gen, cty, eth, diag)
				}
			}
		}
	}
	return rel
}

func refute(t *testing.T, rel *relation.Relation, sigma Set, k int) *Refutation {
	t.Helper()
	if err := sigma.Validate(); err != nil {
		t.Fatal(err)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	return Refute(bounds, rel.Schema(), k)
}

func pair(a1, v1, a2, v2 string, lower, upper int) Constraint {
	return NewMulti([]string{a1, a2}, []string{v1, v2}, lower, upper)
}

// TestRefuteRegionCore is the dense-conflict core: CTY[V] is capped at
// 2k−1, and its two disjoint refinements by sex each need a kept all-QI
// occurrence, so each demands k.
func TestRefuteRegionCore(t *testing.T) {
	rel := refuteRelation(t)
	const k = 3
	sigma := Set{
		New("CTY", "V", 0, 2*k-1),
		pair("CTY", "V", "GEN", "M", 1, 16),
		pair("CTY", "V", "GEN", "F", 1, 16),
	}
	r := refute(t, rel, sigma, k)
	if r == nil {
		t.Fatal("core not refuted")
	}
	if r.Bound.Source.Key() != sigma[0].Key() || len(r.Family) != 2 || !slices.Equal(r.Demands, []int{k, k}) {
		t.Fatalf("proof %v: want σ = %s, two members demanding %d", r, sigma[0], k)
	}
	for _, want := range []string{"(CTY[V], 0, 5)", "3 (CTY[V] GEN[F], 1, 16)", "3 (CTY[V] GEN[M], 1, 16)", "= 6 > 5"} {
		if !strings.Contains(r.Error(), want) {
			t.Errorf("proof %q does not name %q", r, want)
		}
	}
	// One more occurrence of headroom and the count no longer proves anything.
	sigma[0].Upper = 2 * k
	if r := refute(t, rel, sigma, k); r != nil {
		t.Fatalf("refuted with λr = 2k: %v", r)
	}
}

// TestRefuteSingleConstraint: 0 < λl, an all-QI target and λr < k is
// infeasible on its own; σ is its own family.
func TestRefuteSingleConstraint(t *testing.T) {
	rel := refuteRelation(t)
	sigma := Set{New("GEN", "M", 1, 2)}
	r := refute(t, rel, sigma, 3)
	if r == nil || len(r.Family) != 1 || r.Family[0] != r.Bound || r.Demands[0] != 3 {
		t.Fatalf("proof %v, want σ alone demanding 3", r)
	}
	if !strings.Contains(r.Error(), "QI-group of ≥ k = 3 rows") {
		t.Errorf("proof %q does not explain the raise to k", r)
	}
	if r := refute(t, rel, sigma, 2); r != nil {
		t.Fatalf("refuted at k = λr: %v", r)
	}
	// A kept occurrence of a target with a sensitive attribute needs no
	// QI-group of its own, so λl is the whole demand.
	if r := refute(t, rel, Set{pair("GEN", "M", "DIAG", "flu", 1, 2)}, 3); r != nil {
		t.Fatalf("sensitive target refuted: %v", r)
	}
}

// TestRefuteNonQIMemberNotRaised: members that target a sensitive attribute
// demand only their λl.
func TestRefuteNonQIMemberNotRaised(t *testing.T) {
	rel := refuteRelation(t)
	sigma := Set{
		New("CTY", "V", 0, 3),
		pair("CTY", "V", "DIAG", "flu", 1, 16),
		pair("CTY", "V", "DIAG", "cold", 1, 16),
	}
	if r := refute(t, rel, sigma, 3); r != nil {
		t.Fatalf("refuted on raised sensitive members: %v", r)
	}
	// The same members with λl = 2 demand 4 > 3.
	sigma[1].Lower, sigma[2].Lower = 2, 2
	r := refute(t, rel, sigma, 3)
	if r == nil || !slices.Equal(r.Demands, []int{2, 2}) {
		t.Fatalf("proof %v, want demands [2 2]", r)
	}
	// σ itself may target a sensitive attribute only.
	sigma = Set{
		New("DIAG", "flu", 0, 1),
		pair("DIAG", "flu", "GEN", "M", 1, 16),
		pair("DIAG", "flu", "GEN", "F", 1, 16),
	}
	if r := refute(t, rel, sigma, 3); r == nil || r.Bound.Source.Key() != sigma[0].Key() {
		t.Fatalf("proof %v, want DIAG[flu] over two members demanding 1", r)
	}
}

// TestRefuteOverlappingNotSummed: refinements that can share a row are not
// summed, even when all of them together demand more than λr.
func TestRefuteOverlappingNotSummed(t *testing.T) {
	rel := refuteRelation(t)
	sigma := Set{
		New("CTY", "V", 0, 5),
		pair("CTY", "V", "GEN", "M", 1, 16),
		pair("CTY", "V", "ETH", "A", 1, 16),
	}
	if r := refute(t, rel, sigma, 3); r != nil {
		t.Fatalf("refuted by summing overlapping targets: %v", r)
	}
	// A target that does not refine σ's is no member either.
	sigma[2] = pair("CTY", "T", "GEN", "F", 1, 16)
	if r := refute(t, rel, sigma, 3); r != nil {
		t.Fatalf("refuted by a target outside σ's: %v", r)
	}
}

// TestRefuteUnseenValues: a value R never holds has no code of its own, so
// a target holding one refines nothing, and two such targets are not taken
// as disjoint.
func TestRefuteUnseenValues(t *testing.T) {
	rel := refuteRelation(t)
	const k = 2
	sigma := Set{
		New("GEN", "M", 0, 3),
		pair("GEN", "M", "CTY", "absent1", 2, 16),
		pair("GEN", "M", "CTY", "absent2", 2, 16),
	}
	if r := refute(t, rel, sigma, k); r != nil {
		t.Fatalf("two unseen values taken as disjoint: %v", r)
	}
	// A seen and an unseen value do differ.
	sigma[2] = pair("GEN", "M", "CTY", "V", 2, 16)
	if r := refute(t, rel, sigma, k); r == nil || len(r.Family) != 2 {
		t.Fatalf("proof %v, want both members", r)
	}
	sigma = Set{
		New("CTY", "absent", 0, 1),
		pair("CTY", "absent", "GEN", "M", 1, 16),
		pair("CTY", "absent", "GEN", "F", 1, 16),
	}
	if r := refute(t, rel, sigma, 1); r != nil {
		t.Fatalf("an unseen target refined: %v", r)
	}
}

// TestRefuteOrderIndependent: the greedy choice breaks demand ties by
// target, not by position in Σ, so every order of Σ gets the same verdict
// and proof. Here three members tie at k; the ETH target comes first and
// overlaps both sex targets, so nothing is proven. Renamed to ZIP it comes
// last, and the two sex targets prove infeasibility.
func TestRefuteOrderIndependent(t *testing.T) {
	rel := refuteRelation(t)
	zipRel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "ZIP", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	for i := 0; i < rel.Len(); i++ {
		zipRel.MustAppendValues(rel.Values(i)...)
	}
	for _, tc := range []struct {
		rel     *relation.Relation
		third   string
		refuted bool
	}{{rel, "ETH", false}, {zipRel, "ZIP", true}} {
		sigma := Set{
			New("CTY", "V", 0, 5),
			pair("CTY", "V", "GEN", "M", 1, 16),
			pair("CTY", "V", "GEN", "F", 1, 16),
			pair("CTY", "V", tc.third, "A", 1, 16),
		}
		want := refute(t, tc.rel, sigma, 3)
		if (want != nil) != tc.refuted {
			t.Fatalf("%s: proof %v, want refuted = %v", tc.third, want, tc.refuted)
		}
		for _, perm := range [][]int{{3, 2, 1, 0}, {0, 3, 1, 2}, {2, 0, 3, 1}, {1, 3, 0, 2}} {
			reordered := make(Set, len(sigma))
			for i, p := range perm {
				reordered[i] = sigma[p]
			}
			got := refute(t, tc.rel, reordered, 3)
			if (got != nil) != tc.refuted || (got != nil && got.Error() != want.Error()) {
				t.Errorf("%s, order %v: proof %v, want %v", tc.third, perm, got, want)
			}
		}
	}
}

// TestCompareTargetsMatchesKey: the allocation-free tie-break orders targets
// as their Keys do.
func TestCompareTargetsMatchesKey(t *testing.T) {
	targets := []Constraint{
		New("A", "x", 0, 0),
		New("A", "xy", 0, 0),
		New("AB", "x", 0, 0),
		New("B", "a", 0, 0),
		NewMulti([]string{"B", "A"}, []string{"a", "x"}, 0, 0),
		NewMulti([]string{"A", "B"}, []string{"x", "b"}, 0, 0),
		NewMulti([]string{"C", "A", "B"}, []string{"c", "x", "a"}, 0, 0),
		NewMulti([]string{"A", "C"}, []string{"x", "a"}, 0, 0),
	}
	sign := func(n int) int { return min(max(n, -1), 1) }
	for _, a := range targets {
		for _, b := range targets {
			if got, want := sign(compareTargets(a, b)), strings.Compare(a.Key(), b.Key()); got != want {
				t.Errorf("compareTargets(%s, %s) = %d, Key order %d", a, b, got, want)
			}
		}
	}
}

// TestRefuteAllocs pins the no-proof path at zero allocations: the census
// bench Σ, and a Σ whose refinements sum over λr but overlap, so the greedy
// choice runs and fails.
func TestRefuteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	census := dataset.Census().Generate(2000, 42)
	censusSigma, err := Proportional(census, GenOptions{Count: 8, K: 10, Rng: rand.New(rand.NewPCG(3, 14))})
	if err != nil {
		t.Fatal(err)
	}
	overlap := Set{
		New("CTY", "V", 0, 5),
		pair("CTY", "V", "GEN", "M", 1, 16),
		pair("CTY", "V", "ETH", "A", 1, 16),
	}
	for _, tc := range []struct {
		name  string
		rel   *relation.Relation
		sigma Set
		k     int
	}{{"census", census, censusSigma, 10}, {"overlap", refuteRelation(t), overlap, 3}} {
		bounds, err := tc.sigma.Bind(tc.rel)
		if err != nil {
			t.Fatal(err)
		}
		schema := tc.rel.Schema()
		if r := Refute(bounds, schema, tc.k); r != nil {
			t.Fatalf("%s: refuted: %v", tc.name, r)
		}
		if avg := testing.AllocsPerRun(100, func() { Refute(bounds, schema, tc.k) }); avg != 0 {
			t.Errorf("%s: Refute allocates %.1f times per call without a proof, want 0", tc.name, avg)
		}
	}
}
