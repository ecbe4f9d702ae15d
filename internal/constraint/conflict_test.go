package constraint

import (
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/relation"
	"diva/internal/rowset"
)

func TestPairConflict(t *testing.T) {
	rel := patientRelation(t)
	bind := func(c Constraint) *Bound {
		b, err := c.Bound(rel)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	asian := bind(New("ETH", "Asian", 2, 5))         // rows 5,6,7
	african := bind(New("ETH", "African", 1, 3))     // rows 3,4
	vancouver := bind(New("CTY", "Vancouver", 1, 5)) // rows 4,5,7

	if cf := PairConflict(rel, asian, african); cf != 0 {
		t.Errorf("asian/african cf = %v, want 0", cf)
	}
	// asian ∩ vancouver = {5,7}: |∩|=2, |∪|=4 → 0.5.
	if cf := PairConflict(rel, asian, vancouver); cf != 0.5 {
		t.Errorf("asian/vancouver cf = %v, want 0.5", cf)
	}
	// A constraint fully containing another: ∩=2, ∪=3.
	asianVan := bind(NewMulti([]string{"ETH", "CTY"}, []string{"Asian", "Vancouver"}, 1, 2)) // rows 5,7
	if cf := PairConflict(rel, asian, asianVan); cf < 0.66 || cf > 0.67 {
		t.Errorf("asian/asian-vancouver cf = %v, want 2/3", cf)
	}
	// Identical target sets → 1.
	if cf := PairConflict(rel, asian, asian); cf != 1 {
		t.Errorf("self cf = %v, want 1", cf)
	}
	// Empty target sets → 0.
	none := bind(New("ETH", "Martian", 0, 3))
	if cf := PairConflict(rel, none, none); cf != 0 {
		t.Errorf("empty cf = %v, want 0", cf)
	}
}

func TestJaccard(t *testing.T) {
	set := func(rows ...int) *rowset.Set { return rowset.FromSlice(10, rows) }
	for _, tc := range []struct {
		name   string
		si, sj *rowset.Set
		want   float64
	}{
		{"disjoint", set(1, 2), set(3, 4, 5), 0},
		{"equal", set(2, 4, 6), set(2, 4, 6), 1},
		{"both empty", set(), set(), 0},
		{"one empty", set(), set(7), 0},
		{"partial", set(1, 2, 3), set(2, 3, 4), 0.5},
	} {
		if got := Jaccard(tc.si, tc.sj); got != tc.want {
			t.Errorf("%s: Jaccard = %v, want %v", tc.name, got, tc.want)
		}
		if got := Jaccard(tc.sj, tc.si); got != tc.want {
			t.Errorf("%s (swapped): Jaccard = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSetConflict(t *testing.T) {
	rel := patientRelation(t)
	sigma := Set{
		New("ETH", "Asian", 2, 5),     // rows 5,6,7
		New("ETH", "African", 1, 3),   // rows 3,4
		New("CTY", "Vancouver", 1, 5), // rows 4,5,7
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Relevant tuples: {3,4,5,6,7}; contested by ≥ 2 constraints: {4,5,7}.
	got := SetConflict(rel, bounds)
	if got != 0.6 {
		t.Fatalf("SetConflict = %v, want 0.6", got)
	}
	// Identical target sets → every relevant tuple contested.
	dup, err := Set{
		New("ETH", "Asian", 2, 5),
		NewMulti([]string{"GEN", "ETH"}, []string{"Female", "Asian"}, 1, 3),
	}.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	if got := SetConflict(rel, dup); got != 1 {
		t.Fatalf("identical-target SetConflict = %v, want 1", got)
	}
}

func TestSetConflictDisjointIsZero(t *testing.T) {
	rel := patientRelation(t)
	sigma := Set{
		New("ETH", "Asian", 2, 5),
		New("ETH", "African", 1, 3),
		New("ETH", "Caucasian", 1, 5),
	}
	bounds, _ := sigma.Bind(rel)
	if got := SetConflict(rel, bounds); got != 0 {
		t.Fatalf("disjoint SetConflict = %v", got)
	}
	if got := SetConflict(rel, bounds[:1]); got != 0 {
		t.Fatalf("singleton SetConflict = %v", got)
	}
}

// Property: conflict rates always land in [0, 1] on random relations and
// constraint pairs.
func TestConflictRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
	)
	for trial := 0; trial < 100; trial++ {
		rel := relation.New(schema)
		n := 1 + rng.IntN(40)
		for i := 0; i < n; i++ {
			rel.MustAppendValues("a"+strconv.Itoa(rng.IntN(4)), "b"+strconv.Itoa(rng.IntN(4)))
		}
		var bounds []*Bound
		for v := 0; v < 4; v++ {
			for _, attr := range []string{"A", "B"} {
				prefix := "a"
				if attr == "B" {
					prefix = "b"
				}
				b, err := New(attr, prefix+strconv.Itoa(v), 0, n).Bound(rel)
				if err != nil {
					t.Fatal(err)
				}
				bounds = append(bounds, b)
			}
		}
		for i := range bounds {
			for j := range bounds {
				cf := PairConflict(rel, bounds[i], bounds[j])
				if cf < 0 || cf > 1 {
					t.Fatalf("PairConflict out of range: %v", cf)
				}
			}
		}
		if cf := SetConflict(rel, bounds); cf < 0 || cf > 1 {
			t.Fatalf("SetConflict out of range: %v", cf)
		}
	}
}

// TestTargetSetMatchesTargetRows pins the bitset target set to the sorted
// slice view.
func TestTargetSetMatchesTargetRows(t *testing.T) {
	rel := patientRelation(t)
	for _, c := range []Constraint{
		New("ETH", "Asian", 2, 5),
		New("CTY", "Vancouver", 1, 5),
		New("ETH", "Martian", 0, 3), // unseen value: empty target set
		NewMulti([]string{"GEN", "ETH"}, []string{"Female", "Asian"}, 1, 3),
	} {
		b, err := c.Bound(rel)
		if err != nil {
			t.Fatal(err)
		}
		rows := b.TargetRows(rel)
		set := b.TargetSet(rel)
		if set.Universe() != rel.Len() {
			t.Fatalf("%s: universe %d, want %d", b, set.Universe(), rel.Len())
		}
		if got := set.Slice(); len(got) != len(rows) {
			t.Fatalf("%s: TargetSet %v != TargetRows %v", b, got, rows)
		} else {
			for i := range rows {
				if got[i] != rows[i] {
					t.Fatalf("%s: TargetSet %v != TargetRows %v", b, got, rows)
				}
			}
		}
	}
}
