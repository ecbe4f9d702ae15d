package search

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/testutil"
	"diva/internal/trace"
)

// twinRelation has eight rows holding A=x and B=y (the shared target of the
// twin constraints below) whose C values alternate, so the QI-sorted target
// — and with it every enumeration-order window spanning both C values — is
// not in row order. Four A=z, B=w rows form the remainder.
func twinRelation(t testing.TB) *relation.Relation {
	t.Helper()
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.QI},
	))
	for i := 0; i < 8; i++ {
		rel.MustAppendValues("x", "y", "c"+strconv.Itoa(i%2))
	}
	for i := 0; i < 4; i++ {
		rel.MustAppendValues("z", "w", "c0")
	}
	return rel
}

// twinBounds are A[x] and B[y], both demanding all eight shared target rows:
// with k = 2 each constraint's only candidate is the single window of all
// eight rows, so their candidate lists hold the same cluster.
func twinBounds(t testing.TB, rel *relation.Relation) []*constraint.Bound {
	t.Helper()
	bounds, err := constraint.Set{
		constraint.New("A", "x", 8, 8),
		constraint.New("B", "y", 8, 8),
	}.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	return bounds
}

func assertAscending(t *testing.T, sigma cluster.Clustering) {
	t.Helper()
	for _, c := range sigma {
		for i := 1; i < len(c); i++ {
			if c[i] <= c[i-1] {
				t.Fatalf("SΣ cluster %v is not strictly ascending", c)
			}
		}
	}
}

// TestSigmaUsesSortedActiveCluster is the shared-cluster trap: two nodes
// hold the same cluster as different slices, and the lower-indexed node's
// slice is the unsorted one. SΣ must come out sorted regardless of which
// slice a node holds, because the merge reads the active (sorted) entry.
func TestSigmaUsesSortedActiveCluster(t *testing.T) {
	rel := twinRelation(t)
	g := BuildGraph(rel, twinBounds(t, rel), cluster.Options{K: 2})
	st := g.newState(Options{Strategy: MinChoice})
	w0, w1 := st.rawCandidates(0), st.rawCandidates(1)
	if w0.Len() != 1 || w1.Len() != 1 {
		t.Fatalf("want one candidate per node, got %d and %d", w0.Len(), w1.Len())
	}
	c0, c1 := w0.Clustering(0), w1.Clustering(0)
	s0, s1 := c0[0], c1[0]
	if &s0[0] == &s1[0] {
		t.Fatal("the two nodes' candidates share a backing array")
	}
	if cluster.Fingerprint(s0) != cluster.Fingerprint(s1) {
		t.Fatalf("candidates %v and %v are not the same cluster", s0, s1)
	}
	if slices.IsSorted(s0) {
		t.Fatalf("fixture broken: node 0's candidate %v is already sorted", s0)
	}
	// Node 1 activates the cluster (sorting its own slice); node 0 then
	// shares it through its still-unsorted slice.
	st.assign(1, c1)
	st.assign(0, c0)
	if slices.IsSorted(s0) {
		t.Fatal("assigning a shared cluster sorted the sharer's slice")
	}
	sigma := st.sigma()
	if len(sigma) != 1 {
		t.Fatalf("SΣ = %v, want one cluster", sigma)
	}
	assertAscending(t, sigma)
}

// TestColorSigmaAscending: candidates arrive in enumeration order, so SΣ is
// sorted only because the search sorts clusters on activation.
func TestColorSigmaAscending(t *testing.T) {
	for _, strat := range []Strategy{Basic, MinChoice, MaxFanOut} {
		t.Run(strat.String(), func(t *testing.T) {
			rel := twinRelation(t)
			g := BuildGraph(rel, twinBounds(t, rel), cluster.Options{K: 2})
			sigma, _, found := g.Color(Options{Strategy: strat, Rng: testRng()})
			if !found {
				t.Fatal("no coloring")
			}
			if sigma.Tuples() != 8 {
				t.Fatalf("SΣ = %v, want the eight shared target rows", sigma)
			}
			assertAscending(t, sigma)
		})
	}
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	sigma, _, found := g.ColorPortfolio(Options{}, 3, 1)
	if !found {
		t.Fatal("portfolio found no coloring")
	}
	assertAscending(t, sigma)
}

// TestDescribeConflictMatchesPairConflict pins DescribeMapped's reuse of the
// graph's target sets: every edge weight equals constraint.PairConflict
// bit for bit, and every graph edge is described exactly once.
func TestDescribeConflictMatchesPairConflict(t *testing.T) {
	rng := testutil.Rng(t)
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	edges := 0
	for trial := 0; trial < 40; trial++ {
		rel := relation.New(schema)
		n := 4 + rng.IntN(60)
		for i := 0; i < n; i++ {
			rel.MustAppendValues("a"+strconv.Itoa(rng.IntN(3)), "b"+strconv.Itoa(rng.IntN(4)), "s"+strconv.Itoa(rng.IntN(2)))
		}
		var sigma constraint.Set
		for c := 0; c < 2+rng.IntN(5); c++ {
			switch rng.IntN(3) {
			case 0:
				sigma = append(sigma, constraint.New("A", "a"+strconv.Itoa(rng.IntN(3)), 0, n))
			case 1:
				sigma = append(sigma, constraint.New("B", "b"+strconv.Itoa(rng.IntN(4)), 0, n))
			default:
				sigma = append(sigma, constraint.NewMulti([]string{"A", "S"},
					[]string{"a" + strconv.Itoa(rng.IntN(3)), "s" + strconv.Itoa(rng.IntN(2))}, 0, n))
			}
		}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildGraph(rel, bounds, cluster.Options{K: 2})
		var tr collectTracer
		g.DescribeMapped(&tr, nil)
		want := 0
		for _, node := range g.Nodes {
			want += len(node.Neighbors)
		}
		got := 0
		for _, ev := range tr.events {
			if ev.Kind != trace.KindEdge {
				continue
			}
			got += 2
			cf := constraint.PairConflict(rel, bounds[ev.Node], bounds[ev.N])
			if math.Float64bits(ev.Conflict) != math.Float64bits(cf) {
				t.Fatalf("trial %d: edge %d–%d conflict %v, PairConflict %v", trial, ev.Node, ev.N, ev.Conflict, cf)
			}
		}
		if got != want {
			t.Fatalf("trial %d: %d edge endpoints described, graph has %d", trial, got, want)
		}
		edges += got / 2
	}
	if edges == 0 {
		t.Fatal("no trial produced an edge")
	}
}
