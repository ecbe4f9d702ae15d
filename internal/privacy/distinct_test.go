package privacy

import (
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/relation"
)

// distinctRelation draws n rows over two sensitive attributes with domains
// of 3 and 14 values, so groups reach L on one attribute and not the other.
func distinctRelation(n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S1", Role: relation.Sensitive},
		relation.Attribute{Name: "S2", Role: relation.Sensitive},
	))
	rng := rand.New(rand.NewPCG(5, 8))
	for i := 0; i < n; i++ {
		rel.MustAppendValues("x", "s"+strconv.Itoa(rng.IntN(3)), "t"+strconv.Itoa(rng.IntN(14)))
	}
	return rel
}

// referenceDistinct is the map-based check the linear scan replaced.
func referenceDistinct(rel *relation.Relation, group []int, l int) bool {
	if l <= 1 {
		return true
	}
	for _, a := range rel.Schema().SensitiveIndexes() {
		distinct := map[uint32]struct{}{}
		for _, row := range group {
			distinct[rel.Code(row, a)] = struct{}{}
		}
		if len(distinct) < l {
			return false
		}
	}
	return true
}

// TestDistinctLDiversityMatchesReference compares Holds with a map-based
// count over random groups and every L from 0 to 16, across the stack
// buffer's limit of 8.
func TestDistinctLDiversityMatchesReference(t *testing.T) {
	rel := distinctRelation(200)
	rng := rand.New(rand.NewPCG(2, 9))
	for trial := 0; trial < 300; trial++ {
		group := rand.Perm(rel.Len())[:1+rng.IntN(40)]
		for l := 0; l <= 16; l++ {
			if got, want := (DistinctLDiversity{L: l}).Holds(rel, group), referenceDistinct(rel, group, l); got != want {
				t.Fatalf("trial %d L=%d |group|=%d: Holds = %v, reference %v", trial, l, len(group), got, want)
			}
		}
	}
}

// TestDistinctLDiversityNoAllocs pins that Holds allocates nothing for
// L ≤ 8, on groups that pass and groups that fail.
func TestDistinctLDiversityNoAllocs(t *testing.T) {
	rel := distinctRelation(200)
	group := make([]int, 60)
	for i := range group {
		group[i] = i
	}
	for l := 2; l <= 8; l++ {
		c := DistinctLDiversity{L: l}
		if n := testing.AllocsPerRun(100, func() { c.Holds(rel, group) }); n != 0 {
			t.Errorf("L=%d: Holds allocates %v times per call, want 0", l, n)
		}
	}
}
