package search

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"diva/internal/cluster"
	"diva/internal/verify"
)

// materialize returns every candidate of w as a clustering, in list order.
func materialize(w cluster.Windows) []cluster.Clustering {
	out := make([]cluster.Clustering, w.Len())
	for i := range out {
		out[i] = w.Clustering(i)
	}
	return out
}

func equalClusterings(a, b []cluster.Clustering) bool {
	return slices.EqualFunc(a, b, func(x, y cluster.Clustering) bool {
		return slices.EqualFunc(x, y, slices.Equal[[]int])
	})
}

// checkCacheSound asserts that every node's cached enumeration equals a
// fresh one against the current used-row set.
func checkCacheSound(t *testing.T, name string, step int, st *state) {
	t.Helper()
	for v, node := range st.g.Nodes {
		got := materialize(st.rawCandidates(v))
		want := materialize(node.Enum.Windows(nil, st.used))
		if !equalClusterings(got, want) {
			t.Fatalf("%s, step %d: node %d (%s) cached candidates\n%v\nwant a fresh enumeration's\n%v",
				name, step, v, node.Bound, got, want)
		}
	}
}

// walkAssignments drives st through random assign and unassign steps: an
// uncolored node takes either one of its enumerated candidates or, as the
// search's shared proposals do, an already active cluster (so refs exceed
// one), and a random colored node is retracted, not only the last one.
// The cache is checked against fresh enumerations after every step.
func walkAssignments(t *testing.T, name string, st *state, rng *rand.Rand, steps int) {
	t.Helper()
	checkCacheSound(t, name, 0, st)
	for step := 1; step <= steps; step++ {
		var colored, uncolored []int
		for v, c := range st.colored {
			if c {
				colored = append(colored, v)
			} else {
				uncolored = append(uncolored, v)
			}
		}
		if len(uncolored) > 0 && (len(colored) == 0 || rng.IntN(3) > 0) {
			v := uncolored[rng.IntN(len(uncolored))]
			var cand cluster.Clustering
			if len(st.active) > 0 && rng.IntN(3) == 0 {
				fps := make([]uint64, 0, len(st.active))
				for fp := range st.active {
					fps = append(fps, fp)
				}
				slices.Sort(fps)
				cand = cluster.Clustering{st.active[fps[rng.IntN(len(fps))]].rows}
			} else if w := st.rawCandidates(v); w.Len() > 0 {
				cand = w.Clustering(rng.IntN(w.Len()))
			} else {
				continue // no candidate left: the search would backtrack
			}
			st.assign(v, cand)
		} else {
			v := colored[rng.IntN(len(colored))]
			st.unassign(v, st.assigned[v])
		}
		checkCacheSound(t, name, step, st)
	}
}

// TestCandidateCacheMatchesFreshEnumeration is a model check of the
// candidate cache's key: node v's entry is keyed by the used rows in v's
// pool only, so after any sequence of assignments and retractions —
// shared clusters and out-of-order retractions included — the cached list
// must equal an enumeration against the whole used-row set.
func TestCandidateCacheMatchesFreshEnumeration(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	run := func(name string, inst verify.Instance) {
		bounds, err := inst.Sigma.Bind(inst.Rel)
		if err != nil || len(bounds) == 0 {
			return
		}
		g := BuildGraph(inst.Rel, bounds, cluster.Options{K: inst.K, Criterion: inst.Criterion()})
		st := g.newState(Options{Strategy: MinChoice})
		walkAssignments(t, name, &st, rng, 24)
	}
	for i := 0; i < 300; i++ {
		inst := verify.RandomAdversarialInstance(rng, i)
		run(inst.String(), inst)
		inst = verify.RandomInstance(rng, i, true)
		run(inst.String(), inst)
		inst = verify.DenseConflictInstance(rng, i, 0)
		run(inst.String(), inst)
	}
	for i, g := range denseGraphs(t, 4) {
		st := g.newState(Options{Strategy: MinChoice})
		walkAssignments(t, fmt.Sprintf("REGION core %d", i), &st, rng, 40)
	}
}

// TestCandidateCacheKeepsUntouchedPools pins what the per-pool key buys:
// assigning a cluster outside a node's pool leaves the node's enumeration
// cached, a cluster inside it forces a new one, and retracting that cluster
// serves the earlier enumeration again.
func TestCandidateCacheKeepsUntouchedPools(t *testing.T) {
	rel := paperRelation(t)
	// Pools: ETH[Asian] rows 7–9, ETH[African] rows 4–5 (disjoint from
	// Asian's), CTY[Vancouver] rows 5, 6, 7 and 9.
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	const asian, african, vancouver = 0, 1, 2
	st := g.newState(Options{Strategy: MinChoice})
	pick := func(v, row int) cluster.Clustering {
		w := st.rawCandidates(v)
		for i := 0; i < w.Len(); i++ {
			if c := w.Clustering(i); len(c) > 0 && slices.Contains(c[0], row) {
				return c
			}
		}
		t.Fatalf("node %d has no candidate holding row %d", v, row)
		return nil
	}
	// step applies change and looks African's candidates up again, with
	// every other enumeration done beforehand, and checks the hit and miss
	// counts that lookup adds.
	step := func(what string, change func(), wantHits, wantMisses int) {
		t.Helper()
		hits, misses := st.stats.CacheHits, st.stats.CacheMisses
		change()
		st.rawCandidates(african)
		if h, m := st.stats.CacheHits-hits, st.stats.CacheMisses-misses; h != wantHits || m != wantMisses {
			t.Fatalf("%s: African's lookup added %d hits and %d misses, want %d and %d", what, h, m, wantHits, wantMisses)
		}
	}

	st.rawCandidates(african)
	asianCand := pick(asian, 8)
	step("assigning a cluster outside African's pool", func() { st.assign(asian, asianCand) }, 1, 0)
	vanCand := pick(vancouver, 5)
	step("claiming row 5 of African's pool", func() { st.assign(vancouver, vanCand) }, 0, 1)
	step("releasing row 5", func() { st.unassign(vancouver, vanCand) }, 1, 0)
}
