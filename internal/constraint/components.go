package constraint

import (
	"diva/internal/relation"
	"diva/internal/rowset"
)

// Component is one connected component of the conflict graph over a bound
// constraint set: a maximal group of constraints whose QI target pools are
// transitively reachable through row overlap. Colorings of different
// components never interact — a cluster preserving occurrences of a
// constraint draws all of its rows from that constraint's QI pool, and
// disjoint pools therefore yield row-disjoint clusters that cannot
// contribute occurrences across the divide — so each component is an
// independent (k, Σᵢ) subproblem (see DESIGN.md §11 for the soundness
// argument).
type Component struct {
	// Indices are the member constraints' positions in the bound slice the
	// decomposition was computed over, ascending.
	Indices []int
	// Bounds are the member constraints, parallel to Indices.
	Bounds []*Bound
	// Pool is the union of the members' QI target pools (TargetQIRows): every
	// row any cluster of this component's coloring may claim, and so every
	// row holding one of the members' full targets.
	Pool *rowset.Set
}

// Components partitions a bound constraint set into the connected components
// of its QI-pool intersection graph: two constraints land in the same
// component iff their TargetQIRows pools are connected through pairwise row
// overlap. Constraints with empty pools (unseen target values, or targets
// whose QI part never occurs) form singleton components with empty pools.
//
// The decomposition is deterministic: components are ordered by their
// smallest member index, and member lists ascend. Every constraint appears
// in exactly one component, and pools — hence cluster row footprints — are
// pairwise disjoint across components. Its Pools pass runs on up to
// GOMAXPROCS workers; ComponentsParallel bounds them.
func Components(rel *relation.Relation, bounds []*Bound) []Component {
	return ComponentsParallel(rel, bounds, 0)
}

// ComponentsParallel is Components with its Pools pass on up to parallelism
// workers (0 means GOMAXPROCS, 1 runs it on the caller). The components are
// the same at every setting.
func ComponentsParallel(rel *relation.Relation, bounds []*Bound, parallelism int) []Component {
	n := rel.Len()
	pools := make([]*rowset.Set, len(bounds))
	for i, rows := range Pools(rel, bounds, parallelism) {
		pools[i] = rowset.FromSlice(n, rows)
	}
	// Union-find with path compression; union by smaller root so component
	// identity is the smallest member index.
	parent := make([]int, len(bounds))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	union := func(i, j int) {
		ri, rj := find(i), find(j)
		if ri == rj {
			return
		}
		if rj < ri {
			ri, rj = rj, ri
		}
		parent[rj] = ri
	}
	for i := range bounds {
		for j := i + 1; j < len(bounds); j++ {
			if pools[i].Intersects(pools[j]) {
				union(i, j)
			}
		}
	}
	// Group members under their roots, in ascending root order.
	byRoot := make(map[int][]int, len(bounds))
	var roots []int
	for i := range bounds {
		r := find(i)
		if _, seen := byRoot[r]; !seen {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], i)
	}
	// Roots are minimal member indexes; iterating members in index order
	// discovers roots in ascending order already.
	comps := make([]Component, 0, len(roots))
	for _, r := range roots {
		members := byRoot[r]
		c := Component{
			Indices: members,
			Bounds:  make([]*Bound, len(members)),
			Pool:    rowset.New(n),
		}
		for k, i := range members {
			c.Bounds[k] = bounds[i]
			c.Pool.Union(pools[i])
		}
		comps = append(comps, c)
	}
	return comps
}
