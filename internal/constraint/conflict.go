package constraint

import (
	"diva/internal/relation"
	"diva/internal/rowset"
)

// PairConflict returns the conflict rate between two bound constraints over
// rel: the Jaccard overlap |Iσi ∩ Iσj| / |Iσi ∪ Iσj| of their target tuple
// sets. It is 0 when the sets are disjoint (no interaction) and 1 when they
// coincide. Two constraints with empty target sets have conflict 0.
func PairConflict(rel *relation.Relation, bi, bj *Bound) float64 {
	return Jaccard(bi.TargetSet(rel), bj.TargetSet(rel))
}

// Jaccard returns |si ∩ sj| / |si ∪ sj|, or 0 when both sets are empty. It
// is PairConflict over precomputed target sets, for callers (the constraint
// graph) that already hold them.
func Jaccard(si, sj *rowset.Set) float64 {
	inter := si.IntersectionCount(sj)
	union := si.Len() + sj.Len() - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// SetConflict returns cf(Σ) over rel: the fraction of relevant (target)
// tuples that are claimed by more than one constraint,
//
//	cf(Σ) = |{t : t ∈ Iσi ∩ Iσj for some i ≠ j}| / |Iσ1 ∪ … ∪ Iσn|.
//
// It is 0 when the constraints' target sets are pairwise disjoint (no
// interaction) and 1 when every relevant tuple is contested by at least two
// constraints. The venue paper defines the conflict rate as "the number of
// overlapping relevant tuples" normalized to [0,1] and defers the details
// to its extended report; this repository fixes the normalization as
// overlapping-over-all relevant tuples, which preserves the properties the
// experiments rely on: cf = 0 iff constraints are independent, cf grows
// monotonically as target sets collide, and the full [0, 1] range is
// reachable on any dataset. A set with fewer than two constraints, or with
// empty targets, has cf = 0.
func SetConflict(rel *relation.Relation, bounds []*Bound) float64 {
	pool := rowset.NewPool(rel.Len())
	claimed := pool.Get()   // rows targeted by at least one constraint
	contested := pool.Get() // rows targeted by at least two
	for _, b := range bounds {
		ts := pool.Get()
		b.TargetSetInto(rel, ts)
		overlap := pool.Get()
		overlap.CopyFrom(ts)
		overlap.Intersect(claimed)
		contested.Union(overlap)
		claimed.Union(ts)
		pool.Put(overlap)
		pool.Put(ts)
	}
	if claimed.Len() == 0 {
		return 0
	}
	return float64(contested.Len()) / float64(claimed.Len())
}
