package search

import (
	"sync"
	"testing"

	"diva/internal/cluster"
	"diva/internal/profile"
	"diva/internal/trace"
)

// eventSink is a goroutine-safe event collector (portfolio heartbeats arrive
// concurrently).
type eventSink struct {
	mu     sync.Mutex
	events []trace.Event
}

func (s *eventSink) Trace(ev trace.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *eventSink) progress() []trace.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []trace.Event
	for _, ev := range s.events {
		if ev.Kind == trace.KindProgress {
			out = append(out, ev)
		}
	}
	return out
}

// TestColorEmitsHeartbeats runs a sequential search at heartbeat cadence 1
// and checks every step heartbeats, counters are monotone, the final
// heartbeat carries the search's exact totals, and Worker reads -1.
func TestColorEmitsHeartbeats(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	sink := &eventSink{}
	_, stats, found := g.Color(Options{Tracer: sink, HeartbeatEvery: 1})
	if !found {
		t.Fatal("no coloring found")
	}
	hb := sink.progress()
	if len(hb) == 0 {
		t.Fatal("no KindProgress heartbeats emitted")
	}
	prev := -1
	for _, ev := range hb {
		if ev.Steps < prev {
			t.Fatalf("heartbeat steps went backwards: %d after %d", ev.Steps, prev)
		}
		prev = ev.Steps
		if ev.Worker != -1 {
			t.Fatalf("sequential heartbeat Worker = %d, want -1", ev.Worker)
		}
	}
	last := hb[len(hb)-1]
	if last.Steps != stats.Steps || last.Backtracks != stats.Backtracks ||
		last.Candidates != stats.CandidatesTried ||
		last.CacheHits != stats.CacheHits || last.CacheMisses != stats.CacheMisses {
		t.Fatalf("final heartbeat %+v does not match stats %+v", last, stats)
	}
}

// TestColorFinalHeartbeatOnDefaultCadence: even a short search (fewer steps
// than DefaultHeartbeatEvery) ends with one authoritative heartbeat.
func TestColorFinalHeartbeatOnDefaultCadence(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	sink := &eventSink{}
	_, stats, found := g.Color(Options{Tracer: sink})
	if !found {
		t.Fatal("no coloring found")
	}
	hb := sink.progress()
	if len(hb) == 0 {
		t.Fatal("no final heartbeat on default cadence")
	}
	if last := hb[len(hb)-1]; last.Steps != stats.Steps {
		t.Fatalf("final heartbeat steps = %d, want %d", last.Steps, stats.Steps)
	}
}

// TestColorPortfolioForwardsWorkerHeartbeats: workers' per-step events stay
// suppressed but their heartbeats flow through, stamped with the worker
// index.
func TestColorPortfolioForwardsWorkerHeartbeats(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	sink := &eventSink{}
	_, _, found := g.ColorPortfolio(Options{Tracer: sink, HeartbeatEvery: 1}, 3, 42)
	if !found {
		t.Fatal("portfolio found no coloring")
	}
	workers := map[int]bool{}
	for _, ev := range sink.progress() {
		if ev.Worker < 0 {
			t.Fatalf("portfolio heartbeat Worker = %d, want >= 0", ev.Worker)
		}
		workers[ev.Worker] = true
	}
	if len(workers) == 0 {
		t.Fatal("no worker heartbeats forwarded")
	}
}

// TestColorPortfolioReplaysIntoProfiler is the replay contract: after a
// portfolio win, the returned Stats name the winning worker, and a Profiler
// holds its per-node assign/backtrack counts even though per-step worker
// events were suppressed.
func TestColorPortfolioReplaysIntoProfiler(t *testing.T) {
	rel := paperRelation(t)
	g := BuildGraph(rel, paperBounds(t, rel), cluster.Options{K: 2})
	prof := profile.New()
	_, stats, found := g.ColorPortfolio(Options{Tracer: prof}, 3, 42)
	if !found {
		t.Fatal("portfolio found no coloring")
	}
	if stats.WinnerStrategy == "" {
		t.Fatal("portfolio stats name no winner")
	}
	nodes := prof.Profile().Nodes
	if len(nodes) == 0 {
		t.Fatal("profiler has no nodes after portfolio win (replay missing)")
	}
	totalAssigns, totalBacktracks := 0, 0
	for _, n := range nodes {
		totalAssigns += n.Assigns
		totalBacktracks += n.Backtracks
	}
	if totalAssigns != stats.Steps {
		t.Fatalf("replayed assigns sum to %d, want winner steps %d", totalAssigns, stats.Steps)
	}
	if totalBacktracks != stats.Backtracks {
		t.Fatalf("replayed backtracks sum to %d, want %d", totalBacktracks, stats.Backtracks)
	}
}
