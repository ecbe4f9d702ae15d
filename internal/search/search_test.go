package search

import (
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/relation"
)

func testRng() *rand.Rand { return rand.New(rand.NewPCG(4, 2)) }

// paperRelation is Table 1 of the paper.
func paperRelation(t testing.TB) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "ETH", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "PRV", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	for _, row := range [][]string{
		{"Female", "Caucasian", "80", "AB", "Calgary", "Hypertension"},
		{"Female", "Caucasian", "32", "AB", "Calgary", "Tuberculosis"},
		{"Male", "Caucasian", "59", "AB", "Calgary", "Osteoarthritis"},
		{"Male", "Caucasian", "46", "MB", "Winnipeg", "Migraine"},
		{"Male", "African", "32", "MB", "Winnipeg", "Hypertension"},
		{"Male", "African", "43", "BC", "Vancouver", "Seizure"},
		{"Male", "Caucasian", "35", "BC", "Vancouver", "Hypertension"},
		{"Female", "Asian", "58", "BC", "Vancouver", "Seizure"},
		{"Female", "Asian", "63", "MB", "Winnipeg", "Influenza"},
		{"Female", "Asian", "71", "BC", "Vancouver", "Migraine"},
	} {
		rel.MustAppendValues(row...)
	}
	return rel
}

func paperBounds(t testing.TB, rel *relation.Relation) []*constraint.Bound {
	t.Helper()
	sigma := constraint.Set{
		constraint.New("ETH", "Asian", 2, 5),
		constraint.New("ETH", "African", 1, 3),
		constraint.New("CTY", "Vancouver", 2, 4),
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	return bounds
}

func TestBuildGraphEdges(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	if len(g.Nodes) != 3 {
		t.Fatalf("%d nodes", len(g.Nodes))
	}
	// Example 3.3: edges {v1,v3} and {v2,v3}; no edge {v1,v2}.
	wantNeighbors := [][]int{{2}, {2}, {0, 1}}
	for i, node := range g.Nodes {
		if len(node.Neighbors) != len(wantNeighbors[i]) {
			t.Fatalf("node %d neighbors = %v, want %v", i, node.Neighbors, wantNeighbors[i])
		}
		for j := range node.Neighbors {
			if node.Neighbors[j] != wantNeighbors[i][j] {
				t.Fatalf("node %d neighbors = %v, want %v", i, node.Neighbors, wantNeighbors[i])
			}
		}
	}
}

func TestColorPaperExampleAllStrategies(t *testing.T) {
	for _, strat := range []Strategy{Basic, MinChoice, MaxFanOut} {
		t.Run(strat.String(), func(t *testing.T) {
			rel := paperRelation(t)
			g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
			sigma, stats, found := g.Color(Options{Strategy: strat, Rng: testRng()})
			if !found {
				t.Fatalf("no coloring found (stats %+v)", stats)
			}
			// The African constraint forces cluster {4, 5}.
			forced := false
			rows := map[int]bool{}
			for _, c := range sigma {
				if len(c) == 2 && c[0] == 4 && c[1] == 5 {
					forced = true
				}
				for _, r := range c {
					if rows[r] {
						t.Fatalf("row %d appears in two clusters of SΣ", r)
					}
					rows[r] = true
				}
			}
			if !forced {
				t.Errorf("SΣ = %v missing forced African cluster {4,5}", sigma)
			}
			if stats.Steps == 0 {
				t.Error("no steps recorded")
			}
		})
	}
}

func TestColorUnsatisfiable(t *testing.T) {
	rel := paperRelation(t)
	sigma := constraint.Set{constraint.New("ETH", "African", 2, 2)}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	// k = 3 > |I_African| = 2: no cluster can host the Africans.
	g := BuildGraph(rel, bounds, cluster.Options{K: 3})
	if _, _, found := g.Color(Options{Strategy: MinChoice}); found {
		t.Fatal("unsatisfiable instance colored")
	}
}

func TestColorUpperBoundInteraction(t *testing.T) {
	// The paper's σ2/σ4 example: a Male upper bound of 3 conflicts with
	// preserving two Africans (both Male) plus a Male-only cluster.
	rel := paperRelation(t)
	sigma := constraint.Set{
		constraint.New("ETH", "African", 2, 3), // both Africans are Male
		constraint.New("GEN", "Male", 2, 2),    // at most two preserved Males
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	g := BuildGraph(rel, bounds, cluster.Options{K: 2})
	sigmaC, _, found := g.Color(Options{Strategy: MinChoice})
	if !found {
		t.Fatal("satisfiable instance rejected: the African cluster itself preserves exactly two Males")
	}
	// The African cluster must double as the Male cluster: total preserved
	// Males across SΣ must be exactly 2.
	gen, _ := rel.Schema().Index("GEN")
	eth, _ := rel.Schema().Index("ETH")
	males := 0
	for _, c := range sigmaC {
		uniform := true
		for _, r := range c {
			if rel.Value(r, gen) != "Male" {
				uniform = false
			}
		}
		if uniform {
			males += len(c)
		}
	}
	if males != 2 {
		t.Fatalf("SΣ = %v preserves %d Males, want 2", sigmaC, males)
	}
	_ = eth
}

func TestColorUpperBoundUnsatisfiable(t *testing.T) {
	rel := paperRelation(t)
	// Preserving 3+ Caucasians while allowing at most 2 preserved AB
	// province values is fine (clusters can differ on PRV)… but demanding
	// 4 Africans is impossible outright.
	sigma := constraint.Set{constraint.New("ETH", "African", 4, 6)}
	bounds, _ := sigma.Bind(rel)
	g := BuildGraph(rel, bounds, cluster.Options{K: 2})
	if _, _, found := g.Color(Options{Strategy: MaxFanOut}); found {
		t.Fatal("colored a constraint demanding more target tuples than exist")
	}
}

func TestColorAcceptHook(t *testing.T) {
	rel := paperRelation(t)
	bounds := paperBounds(t, rel)
	g := BuildGraph(rel, bounds, cluster.Options{K: 2})
	// Reject every complete coloring: search must fail.
	_, stats, found := g.Color(Options{
		Strategy: MinChoice,
		Accept:   func(int) bool { return false },
	})
	if found {
		t.Fatal("Accept=false still produced a coloring")
	}
	if stats.Steps == 0 {
		t.Fatal("Accept hook short-circuited the search entirely")
	}
	// Accept only colorings leaving 0 or ≥ 4 remaining rows.
	sigma, _, found := g.Color(Options{
		Strategy: MinChoice,
		Accept: func(used int) bool {
			rest := rel.Len() - used
			return rest == 0 || rest >= 4
		},
	})
	if !found {
		t.Fatal("acceptable coloring exists but was not found")
	}
	rest := rel.Len() - sigma.Tuples()
	if rest != 0 && rest < 4 {
		t.Fatalf("accepted coloring leaves %d rows", rest)
	}
}

func TestColorMaxStepsAborts(t *testing.T) {
	rel := paperRelation(t)
	bounds := paperBounds(t, rel)
	g := BuildGraph(rel, bounds, cluster.Options{K: 2})
	// With MaxSteps = 1 and an always-rejecting Accept the search must
	// abort rather than loop.
	_, stats, found := g.Color(Options{
		Strategy: MinChoice,
		MaxSteps: 1,
		Accept:   func(int) bool { return false },
	})
	if found {
		t.Fatal("aborted search reported success")
	}
	if stats.Steps > 2 {
		t.Fatalf("MaxSteps=1 but took %d steps", stats.Steps)
	}
}

func TestEmptyGraphColorsTrivially(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, nil, cluster.Options{K: 2})
	sigma, _, found := g.Color(Options{Strategy: Basic, Rng: testRng()})
	if !found || len(sigma) != 0 {
		t.Fatalf("empty graph: sigma=%v found=%t", sigma, found)
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]Strategy{
		"Basic": Basic, "basic": Basic,
		"MinChoice": MinChoice, "minchoice": MinChoice,
		"MaxFanOut": MaxFanOut, "maxfanout": MaxFanOut,
	} {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy String")
	}
}

// TestPreservedIn checks the occurrence-preservation semantics of Suppress
// for clusters not drawn from the constraint's own target set.
func TestPreservedIn(t *testing.T) {
	rel := paperRelation(t)
	bAsian, _ := constraint.New("ETH", "Asian", 1, 9).Bound(rel)
	bFlu, _ := constraint.New("DIAG", "Hypertension", 1, 9).Bound(rel)
	bMix, _ := constraint.NewMulti([]string{"ETH", "DIAG"}, []string{"Asian", "Seizure"}, 1, 9).Bound(rel)

	// Cluster of the three Asian rows: preserves 3 Asian occurrences.
	asianCluster := []int{7, 8, 9}
	if got := preservedIn(rel, bAsian, asianCluster); got != 3 {
		t.Errorf("asian cluster preserves %d, want 3", got)
	}
	// Mixed-ethnicity cluster: ETH gets suppressed → 0 preserved.
	mixed := []int{6, 7}
	if got := preservedIn(rel, bAsian, mixed); got != 0 {
		t.Errorf("mixed cluster preserves %d, want 0", got)
	}
	// Sensitive attribute: never suppressed, counted per matching row even
	// in mixed clusters. Rows 4 and 6 have Hypertension.
	if got := preservedIn(rel, bFlu, []int{4, 6}); got != 2 {
		t.Errorf("sensitive preserved = %d, want 2", got)
	}
	// Mixed QI+sensitive target: QI part must be uniform; sensitive part
	// counted per row. Cluster {7,8,9} is uniformly Asian; only row 7 has
	// Seizure.
	if got := preservedIn(rel, bMix, asianCluster); got != 1 {
		t.Errorf("mixed target preserved = %d, want 1", got)
	}
	// Empty cluster preserves nothing.
	if got := preservedIn(rel, bAsian, nil); got != 0 {
		t.Errorf("empty cluster preserved = %d", got)
	}
}

// Property: on random instances, any found coloring yields pairwise
// disjoint clusters whose per-constraint preserved occurrences respect all
// upper bounds, with every node's own lower bound met.
func TestColorInvariantProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 66))
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
	)
	for trial := 0; trial < 60; trial++ {
		rel := relation.New(schema)
		n := 10 + rng.IntN(60)
		for i := 0; i < n; i++ {
			rel.MustAppendValues("a"+strconv.Itoa(rng.IntN(3)), "b"+strconv.Itoa(rng.IntN(3)))
		}
		k := 1 + rng.IntN(3)
		var sigma constraint.Set
		for v := 0; v < 3; v++ {
			for _, attr := range []string{"A", "B"} {
				prefix := map[string]string{"A": "a", "B": "b"}[attr]
				idx, _ := schema.Index(attr)
				code, ok := rel.Dict(idx).Lookup(prefix + strconv.Itoa(v))
				if !ok {
					continue
				}
				freq := rel.Count(idx, code)
				if freq < k {
					continue
				}
				lo := k
				hi := freq
				sigma = append(sigma, constraint.New(attr, prefix+strconv.Itoa(v), lo, hi))
			}
		}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildGraph(rel, bounds, cluster.Options{K: k})
		strat := []Strategy{Basic, MinChoice, MaxFanOut}[rng.IntN(3)]
		sigmaC, _, found := g.Color(Options{Strategy: strat, Rng: rng})
		if !found {
			continue
		}
		seen := map[int]bool{}
		for _, c := range sigmaC {
			if len(c) < k {
				t.Fatalf("cluster %v below k=%d", c, k)
			}
			for _, r := range c {
				if seen[r] {
					t.Fatalf("row %d in two clusters", r)
				}
				seen[r] = true
			}
		}
		for _, b := range bounds {
			preserved := 0
			for _, c := range sigmaC {
				preserved += preservedIn(rel, b, c)
			}
			if preserved > b.Upper {
				t.Fatalf("constraint %s upper bound exceeded: %d > %d", b, preserved, b.Upper)
			}
			if preserved < b.Lower {
				t.Fatalf("constraint %s lower bound unmet: %d < %d", b, preserved, b.Lower)
			}
		}
	}
}

// TestBasicStateSelectionIsStatePure: Basic's node choice is a pure
// function of the search state (the per-search salt, the used rows and the
// depth), not of how many visits came before, so returning to a state
// picks the same node again. Two runs from the same seed agree exactly.
func TestBasicStateSelectionIsStatePure(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	st := g.newState(Options{Strategy: Basic, Rng: rand.New(rand.NewPCG(7, 3))})
	first := st.nextNode()
	cands, _ := st.candidatesFor(first)
	if cands.len() == 0 {
		t.Fatalf("node %d has no candidates on the paper instance", first)
	}
	cand := cands.at(0)
	st.assign(first, cand)
	st.nextNode()
	st.unassign(first, cand)
	if again := st.nextNode(); again != first {
		t.Fatalf("back at the root state Basic picked node %d, first picked %d", again, first)
	}

	run := func() (cluster.Clustering, Stats, bool) {
		g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
		return g.Color(Options{Strategy: Basic, Rng: rand.New(rand.NewPCG(7, 3))})
	}
	s1, st1, ok1 := run()
	s2, st2, ok2 := run()
	if ok1 != ok2 || st1.Steps != st2.Steps {
		t.Fatalf("runs diverged: ok %v/%v steps %d/%d", ok1, ok2, st1.Steps, st2.Steps)
	}
	if len(s1) != len(s2) {
		t.Fatalf("clusterings diverged: %v vs %v", s1, s2)
	}
	for i := range s1 {
		if len(s1[i]) != len(s2[i]) {
			t.Fatalf("cluster %d diverged: %v vs %v", i, s1[i], s2[i])
		}
		for j := range s1[i] {
			if s1[i][j] != s2[i][j] {
				t.Fatalf("cluster %d diverged: %v vs %v", i, s1[i], s2[i])
			}
		}
	}
}
