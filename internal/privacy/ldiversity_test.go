package privacy

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"testing"

	"diva/internal/relation"
)

func groupOf(t testing.TB, values []string) (*relation.Relation, []int) {
	t.Helper()
	rel := relation.New(diagSchema())
	group := make([]int, len(values))
	for i, v := range values {
		rel.MustAppendValues("x", v)
		group[i] = i
	}
	return rel, group
}

func TestEntropyLDiversity(t *testing.T) {
	cases := []struct {
		name   string
		values []string
		l      int
		want   bool
	}{
		{"uniform-2-of-2", []string{"a", "b"}, 2, true},
		{"uniform-4-of-2", []string{"a", "a", "b", "b"}, 2, true},
		{"skewed-3-1", []string{"a", "a", "a", "b"}, 2, false}, // H ≈ 0.56 < ln 2
		{"single-value", []string{"a", "a", "a"}, 2, false},
		{"uniform-3-of-3", []string{"a", "b", "c"}, 3, true},
		{"three-values-skewed", []string{"a", "a", "a", "a", "b", "c"}, 3, false},
		{"l1-trivial", []string{"a"}, 1, true},
		{"too-small", []string{"a", "b"}, 3, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel, group := groupOf(t, tc.values)
			c := EntropyLDiversity{L: tc.l}
			if got := c.Holds(rel, group); got != tc.want {
				t.Fatalf("Holds = %t, want %t", got, tc.want)
			}
		})
	}
	if (EntropyLDiversity{L: 2}).Monotone() {
		t.Fatal("entropy l-diversity must not be monotone")
	}
}

func TestEntropyStrongerThanDistinct(t *testing.T) {
	// 9 a's and one each of b, c: distinct 3-diverse but entropy-poor.
	values := []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "b", "c"}
	rel, group := groupOf(t, values)
	if !(DistinctLDiversity{L: 3}).Holds(rel, group) {
		t.Fatal("distinct 3-diversity should hold")
	}
	if (EntropyLDiversity{L: 3}).Holds(rel, group) {
		t.Fatal("entropy 3-diversity should fail on a dominated distribution")
	}
}

func TestRecursiveCLDiversity(t *testing.T) {
	cases := []struct {
		name   string
		values []string
		c      float64
		l      int
		want   bool
	}{
		// Counts 3,2,1 sorted desc; l=2 tail = 2+1 = 3; r1=3 < c·3 iff c>1.
		{"boundary-fails-at-c1", []string{"a", "a", "a", "b", "b", "c"}, 1.0, 2, false},
		{"passes-at-c2", []string{"a", "a", "a", "b", "b", "c"}, 2.0, 2, true},
		// Dominated: 10,1,1; l=2 tail = 2; r1=10 ≥ 3·2.
		{"dominated", []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a", "b", "c"}, 3.0, 2, false},
		{"too-few-values", []string{"a", "a", "b"}, 2.0, 3, false},
		{"l1-trivial", []string{"a"}, 2.0, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel, group := groupOf(t, tc.values)
			crit := RecursiveCLDiversity{C: tc.c, L: tc.l}
			if got := crit.Holds(rel, group); got != tc.want {
				t.Fatalf("Holds = %t, want %t", got, tc.want)
			}
		})
	}
	if (RecursiveCLDiversity{C: 2, L: 2}).Monotone() {
		t.Fatal("recursive (c,l)-diversity must not be monotone")
	}
}

func TestCriterionNames(t *testing.T) {
	for _, c := range []Criterion{
		EntropyLDiversity{L: 3},
		RecursiveCLDiversity{C: 2, L: 3},
	} {
		if c.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestEntropyMultipleSensitiveAttrs(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S1", Role: relation.Sensitive},
		relation.Attribute{Name: "S2", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	// S1 is diverse; S2 is constant → must fail for both criteria at L=2.
	for i := 0; i < 4; i++ {
		rel.MustAppendValues("x", "v"+strconv.Itoa(i), "same")
	}
	group := []int{0, 1, 2, 3}
	if (EntropyLDiversity{L: 2}).Holds(rel, group) {
		t.Fatal("constant S2 passed entropy 2-diversity")
	}
	if (DistinctLDiversity{L: 2}).Holds(rel, group) {
		t.Fatal("constant S2 passed distinct 2-diversity")
	}
}

// referenceEntropy and referenceRecursive are the map-based checks the
// counting buffer replaced.
func referenceEntropy(rel *relation.Relation, group []int, l int) bool {
	if l <= 1 {
		return true
	}
	if len(group) < l {
		return false
	}
	for _, a := range rel.Schema().SensitiveIndexes() {
		counts := map[uint32]int{}
		for _, row := range group {
			counts[rel.Code(row, a)]++
		}
		entropy := 0.0
		for _, cnt := range counts {
			p := float64(cnt) / float64(len(group))
			entropy -= p * math.Log(p)
		}
		if entropy+1e-12 < math.Log(float64(l)) {
			return false
		}
	}
	return true
}

func referenceRecursive(rel *relation.Relation, group []int, c float64, l int) bool {
	if l <= 1 {
		return true
	}
	for _, a := range rel.Schema().SensitiveIndexes() {
		counts := map[uint32]int{}
		for _, row := range group {
			counts[rel.Code(row, a)]++
		}
		if len(counts) < l {
			return false
		}
		var sorted []int
		for _, cnt := range counts {
			sorted = append(sorted, cnt)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
		tail := 0
		for _, cnt := range sorted[l-1:] {
			tail += cnt
		}
		if float64(sorted[0]) >= c*float64(tail) {
			return false
		}
	}
	return true
}

// wideRelation draws rows over two sensitive attributes with 4 and 60
// values, so groups have both few distinct values and more than the
// counting stack buffer holds.
func wideRelation(n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S1", Role: relation.Sensitive},
		relation.Attribute{Name: "S2", Role: relation.Sensitive},
	))
	rng := rand.New(rand.NewPCG(7, 1))
	for i := 0; i < n; i++ {
		rel.MustAppendValues("x", "s"+strconv.Itoa(rng.IntN(4)), "t"+strconv.Itoa(rng.IntN(60)))
	}
	return rel
}

// TestEntropyAndRecursiveMatchReference compares both criteria with the
// map-based checks over random groups, every L from 0 to 8 and several C.
func TestEntropyAndRecursiveMatchReference(t *testing.T) {
	for _, rel := range []*relation.Relation{distinctRelation(300), wideRelation(300)} {
		rng := rand.New(rand.NewPCG(4, 4))
		for trial := 0; trial < 300; trial++ {
			group := rng.Perm(rel.Len())[:rng.IntN(120)]
			for l := 0; l <= 8; l++ {
				if got, want := (EntropyLDiversity{L: l}).Holds(rel, group), referenceEntropy(rel, group, l); got != want {
					t.Fatalf("trial %d L=%d |group|=%d: entropy Holds = %v, reference %v", trial, l, len(group), got, want)
				}
				for _, c := range []float64{0.5, 1, 2, 3.5} {
					if got, want := (RecursiveCLDiversity{C: c, L: l}).Holds(rel, group), referenceRecursive(rel, group, c, l); got != want {
						t.Fatalf("trial %d C=%v L=%d |group|=%d: recursive Holds = %v, reference %v", trial, c, l, len(group), got, want)
					}
				}
			}
		}
	}
}

// TestEntropyAndRecursiveNoAllocs pins that both criteria allocate nothing
// on groups whose sensitive attributes hold at most 32 distinct values, on
// groups that pass and groups that fail.
func TestEntropyAndRecursiveNoAllocs(t *testing.T) {
	rel := distinctRelation(200)
	group := make([]int, 60)
	for i := range group {
		group[i] = i
	}
	for l := 2; l <= 8; l++ {
		for _, c := range []Criterion{EntropyLDiversity{L: l}, RecursiveCLDiversity{C: 2, L: l}} {
			if n := testing.AllocsPerRun(100, func() { c.Holds(rel, group) }); n != 0 {
				t.Errorf("%s: Holds allocates %v times per call, want 0", c.Name(), n)
			}
		}
	}
}
