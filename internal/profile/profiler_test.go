package profile

import (
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func testClock() func() time.Duration {
	var tick time.Duration
	return func() time.Duration {
		tick += time.Millisecond
		return tick
	}
}

// feed replays a minimal sequential search: two nested assigns, the inner
// one backtracked after an exhaustion below it, then success at depth 2.
func feed(p *Profiler) {
	p.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 0, Span: 1, Depth: 1})
	p.Trace(trace.Event{Kind: trace.KindCandidates, Node: 1, N: 2, Parent: 1, Depth: 1})
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 1, Span: 2, Parent: 1, Depth: 2})
	p.Trace(trace.Event{Kind: trace.KindExhausted, Node: 2, Parent: 2, Depth: 2, Enumerated: 3, RejectedUpper: 2, Blocker: 0})
	p.Trace(trace.Event{Kind: trace.KindBacktrack, Node: 1, Span: 2, Parent: 1, Depth: 2})
	p.Trace(trace.Event{Kind: trace.KindCacheHit, Node: 1, N: 2, Parent: 1, Depth: 1})
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 2, Span: 3, Parent: 1, Depth: 2})
	p.Trace(trace.Event{Kind: trace.KindProgress, Steps: 3, Backtracks: 1, Candidates: 4, CacheHits: 1, CacheMisses: 1, Depth: 2, Worker: -1})
	p.Trace(trace.Event{Kind: trace.KindPhaseEnd, Phase: trace.PhaseColor})
}

func TestProfilerTree(t *testing.T) {
	p := New(WithClock(testClock()))
	feed(p)
	m := &trace.RunMetrics{Steps: 3, Backtracks: 1}
	p.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Metrics: m})
	prof := p.Profile()

	if prof.Root == nil {
		t.Fatal("no root span")
	}
	if len(prof.Root.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(prof.Root.Children))
	}
	top := prof.Root.Children[0]
	if top.Node != 0 || len(top.Children) != 2 {
		t.Fatalf("top span node=%d children=%d, want node 0 with 2 children", top.Node, len(top.Children))
	}
	if !top.Children[0].Backtracked || top.Children[0].Node != 1 {
		t.Fatalf("first child = %+v, want backtracked node 1", top.Children[0])
	}
	if top.Children[1].Backtracked {
		t.Fatal("successful-path span marked backtracked")
	}
	if top.SubtreeAssigns != 3 || top.SubtreeBacktracks != 1 {
		t.Fatalf("subtree assigns=%d backtracks=%d, want 3/1", top.SubtreeAssigns, top.SubtreeBacktracks)
	}
	if top.Candidates != 4 || top.CacheHits != 1 || top.CacheMisses != 1 {
		t.Fatalf("top candidates=%d hits=%d misses=%d", top.Candidates, top.CacheHits, top.CacheMisses)
	}
	if r := top.CacheHitRatio(); r != 0.5 {
		t.Fatalf("cache hit ratio = %v, want 0.5", r)
	}
	if prof.MaxDepth != 2 || prof.SpanCount != 3 {
		t.Fatalf("max depth %d spans %d, want 2/3", prof.MaxDepth, prof.SpanCount)
	}
	if prof.Metrics != m || prof.Outcome != "ok" {
		t.Fatalf("metrics/outcome = %+v/%q, want the run-end's", prof.Metrics, prof.Outcome)
	}
	// The run-end event is not a point on the timeline: the profile's
	// duration is the same as without it.
	bare := New(WithClock(testClock()))
	feed(bare)
	if d := bare.Profile().Duration; prof.Duration != d {
		t.Fatalf("run-end moved Duration to %v, want %v", prof.Duration, d)
	}
	// Wall accounting: every span closed at the last event, self never
	// negative, parent wall covers children.
	if top.Wall < top.Children[0].Wall+top.Children[1].Wall {
		t.Fatalf("parent wall %v < sum of children", top.Wall)
	}
	if top.SelfWall < 0 {
		t.Fatalf("negative self wall %v", top.SelfWall)
	}
	// Exhaustion bookkeeping: node 2 exhausted once with blame on node 0.
	if prof.Nodes[2].Exhaustions != 1 || prof.Nodes[2].BlockedBy[0] != 2 {
		t.Fatalf("node 2 stats = %+v", prof.Nodes[2])
	}
	if prof.Nodes[0].Blamed != 2 {
		t.Fatalf("node 0 blamed = %d, want 2", prof.Nodes[0].Blamed)
	}
	if prof.LastExhaustion == nil || prof.LastExhaustion.Node != 2 {
		t.Fatalf("last exhaustion = %+v", prof.LastExhaustion)
	}

	// Finalization is idempotent and freezes the profile.
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 9, Span: 99, Depth: 1})
	if p.Profile() != prof || prof.SpanCount != 3 {
		t.Fatal("Profile not idempotent after finalization")
	}
}

func TestProfilerSpanCap(t *testing.T) {
	p := New(WithClock(testClock()), WithMaxSpans(2))
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 0, Span: 1, Depth: 1})
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 1, Span: 2, Parent: 1, Depth: 2})
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 2, Span: 3, Parent: 2, Depth: 3}) // over cap
	p.Trace(trace.Event{Kind: trace.KindBacktrack, Node: 2, Span: 3, Parent: 2, Depth: 3})
	p.Trace(trace.Event{Kind: trace.KindBacktrack, Node: 1, Span: 2, Parent: 1, Depth: 2})
	prof := p.Profile()
	if !prof.Truncated {
		t.Fatal("cap exceeded but Truncated not set")
	}
	if prof.SpanCount != 2 {
		t.Fatalf("span count = %d, want 2", prof.SpanCount)
	}
	// Flat aggregates stay exact past the cap.
	if prof.Nodes[2].Assigns != 1 || prof.Nodes[2].Backtracks != 1 {
		t.Fatalf("capped node stats = %+v", prof.Nodes[2])
	}
	// The pop of the capped span must not close span 2 early: span 2's
	// backtrack is the next pop and must match.
	if prof.Root.Children[0].Children[0].Node != 1 || !prof.Root.Children[0].Children[0].Backtracked {
		t.Fatal("span stack unbalanced after capped push/pop")
	}
}

func TestProfilerFlatPortfolio(t *testing.T) {
	p := New(WithClock(testClock()))
	// Portfolio replay: batched per-node aggregates with no span IDs.
	p.Trace(trace.Event{Kind: trace.KindAssign, Node: 0, N: 5})
	p.Trace(trace.Event{Kind: trace.KindBacktrack, Node: 0, N: 2})
	p.Trace(trace.Event{Kind: trace.KindWorkerWin, N: 1, Strategy: "MaxFanOut"})
	p.Trace(trace.Event{Kind: trace.KindProgress, Steps: 7, Backtracks: 2, Worker: 1})
	p.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Metrics: &trace.RunMetrics{
		Steps: 5, Backtracks: 2, WinnerWorker: 1, WinnerStrategy: "MaxFanOut"}})
	prof := p.Profile()
	if !prof.Flat {
		t.Fatal("batched events did not mark the profile flat")
	}
	if prof.Root != nil {
		t.Fatal("flat profile grew a tree")
	}
	if prof.Nodes[0].Assigns != 5 || prof.Nodes[0].Backtracks != 2 {
		t.Fatalf("flat node stats = %+v", prof.Nodes[0])
	}
	var sum strings.Builder
	if err := prof.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steps=5 backtracks=2", "portfolio winner: worker 1 (MaxFanOut)"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary lacks %q:\n%s", want, sum.String())
		}
	}
	// Exports must degrade gracefully, not panic, on a treeless profile.
	ex := prof.Explain()
	if ex.Verdict != "" {
		t.Fatalf("verdict = %q on a run with no exhaustion", ex.Verdict)
	}
}
