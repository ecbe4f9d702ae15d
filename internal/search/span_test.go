package search

import (
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/trace"
)

// collectTracer records every event it sees, in order.
type collectTracer struct{ events []trace.Event }

func (c *collectTracer) Trace(ev trace.Event) { c.events = append(c.events, ev) }

// TestSpanBalance drives a traced sequential search and replays the span
// annotations as a stack machine: every assign pushes a fresh span whose
// parent is the current top, every backtrack pops exactly that span, and the
// spans left open at the end are the successful coloring path.
func TestSpanBalance(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	var tr collectTracer
	_, stats, found := g.Color(Options{Strategy: MinChoice, Tracer: &tr})
	if !found {
		t.Fatal("paper example did not color")
	}

	var stack []trace.Event
	seen := map[uint64]bool{}
	assigns, backtracks := 0, 0
	for _, ev := range tr.events {
		switch ev.Kind {
		case trace.KindAssign:
			assigns++
			if ev.Span == 0 {
				t.Fatalf("assign of node %d has no span ID", ev.Node)
			}
			if seen[ev.Span] {
				t.Fatalf("span %d reused", ev.Span)
			}
			seen[ev.Span] = true
			wantParent := uint64(0)
			if len(stack) > 0 {
				wantParent = stack[len(stack)-1].Span
			}
			if ev.Parent != wantParent {
				t.Fatalf("assign span %d: parent = %d, want %d", ev.Span, ev.Parent, wantParent)
			}
			if ev.Depth != len(stack)+1 {
				t.Fatalf("assign span %d: depth = %d, stack depth %d", ev.Span, ev.Depth, len(stack)+1)
			}
			stack = append(stack, ev)
		case trace.KindBacktrack:
			backtracks++
			if len(stack) == 0 {
				t.Fatal("backtrack with no open span")
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if ev.Span != top.Span {
				t.Fatalf("backtrack closes span %d, open span is %d", ev.Span, top.Span)
			}
			if ev.Node != top.Node {
				t.Fatalf("backtrack of node %d closes span of node %d", ev.Node, top.Node)
			}
		case trace.KindCandidates, trace.KindCacheHit:
			wantParent := uint64(0)
			if len(stack) > 0 {
				wantParent = stack[len(stack)-1].Span
			}
			if ev.Parent != wantParent {
				t.Fatalf("%s parent = %d, want %d", ev.Kind, ev.Parent, wantParent)
			}
		}
	}
	if assigns != stats.Steps {
		t.Fatalf("saw %d assign events, stats.Steps = %d", assigns, stats.Steps)
	}
	if backtracks != stats.Backtracks {
		t.Fatalf("saw %d backtrack events, stats.Backtracks = %d", backtracks, stats.Backtracks)
	}
	// The open spans are the successful path: one per colored node.
	if len(stack) != len(g.Nodes) {
		t.Fatalf("%d spans left open, want %d (the coloring path)", len(stack), len(g.Nodes))
	}
}

// TestExhaustedEvents checks the two exhaustion flavors the explainer
// distinguishes: zero enumeration (true infeasibility at the node) and
// consistency-check rejection naming the blocking constraint.
func TestExhaustedEvents(t *testing.T) {
	t.Run("zero enumeration", func(t *testing.T) {
		rel := paperRelation(t)
		sigma := constraint.Set{constraint.New("ETH", "African", 2, 2)}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			t.Fatal(err)
		}
		// k = 3 > |I_African| = 2: no candidates can exist.
		g := BuildGraph(rel, bounds, cluster.Options{K: 3})
		var tr collectTracer
		if _, _, found := g.Color(Options{Strategy: MinChoice, Tracer: &tr}); found {
			t.Fatal("unsatisfiable instance colored")
		}
		var got *trace.Event
		for i, ev := range tr.events {
			if ev.Kind == trace.KindExhausted {
				got = &tr.events[i]
			}
		}
		if got == nil {
			t.Fatal("no KindExhausted event on a failed search")
		}
		if got.Enumerated != 0 {
			t.Fatalf("enumerated = %d, want 0 (no African pair cluster exists at k=3)", got.Enumerated)
		}
		if got.Blocker != -1 {
			t.Fatalf("blocker = %d, want -1", got.Blocker)
		}
	})

	t.Run("upper-bound rejection names blocker", func(t *testing.T) {
		rel := paperRelation(t)
		// The only cluster preserving 3 Asians (rows 7..9, all Female)
		// preserves 3 Females too, violating σ0's upper bound of 2.
		sigma := constraint.Set{
			constraint.New("GEN", "Female", 2, 2),
			constraint.New("ETH", "Asian", 3, 3),
		}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			t.Fatal(err)
		}
		g := BuildGraph(rel, bounds, cluster.Options{K: 2})
		var tr collectTracer
		if _, _, found := g.Color(Options{Strategy: MinChoice, Tracer: &tr}); found {
			t.Fatal("pruned instance colored")
		}
		found := false
		for _, ev := range tr.events {
			if ev.Kind == trace.KindExhausted && ev.RejectedUpper > 0 {
				found = true
				if ev.Blocker != 0 {
					t.Fatalf("blocker = %d, want 0 (the Female upper bound)", ev.Blocker)
				}
			}
		}
		if !found {
			t.Fatal("no exhaustion with RejectedUpper > 0; the consistency check should have pruned the Asian candidate")
		}
	})
}

// TestDescribe checks the graph-description events: one labeled KindNode per
// constraint and the paper's Example 3.3 edge set, with positive conflict
// weights.
func TestDescribe(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	var tr collectTracer
	g.DescribeMapped(&tr, nil)

	nodes := map[int]trace.Event{}
	type edge struct{ a, b int }
	edges := map[edge]float64{}
	for _, ev := range tr.events {
		switch ev.Kind {
		case trace.KindNode:
			nodes[ev.Node] = ev
		case trace.KindEdge:
			edges[edge{ev.Node, ev.N}] = ev.Conflict
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("%d node events, want 3", len(nodes))
	}
	if lbl := nodes[0].Label; lbl != "ETH[Asian], 2, 5" {
		t.Fatalf("node 0 label = %q", lbl)
	}
	if nodes[2].N != 2 {
		t.Fatalf("node 2 degree = %d, want 2", nodes[2].N)
	}
	// Example 3.3: edges {v1,v3} and {v2,v3} only, emitted lower-index
	// first.
	if len(edges) != 2 {
		t.Fatalf("edges = %v, want exactly {0,2} and {1,2}", edges)
	}
	for _, e := range []edge{{0, 2}, {1, 2}} {
		w, ok := edges[e]
		if !ok {
			t.Fatalf("missing edge %v (have %v)", e, edges)
		}
		if w <= 0 || w > 1 {
			t.Fatalf("edge %v conflict = %v, want (0, 1]", e, w)
		}
	}

	// DescribeMapped must be a no-op on nil and Nop tracers.
	g.DescribeMapped(nil, nil)
	g.DescribeMapped(trace.Nop, nil)
}
