package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diva/internal/trace"
)

// TestProfileEndpoint drives /debug/diva/profile end to end against a
// registry holding one profiled synthetic run and pins the JSON schema the
// endpoint serves: the listing, the full profile document, and every export
// format.
func TestProfileEndpoint(t *testing.T) {
	runs := NewRunRegistry(4)
	runs.Begin().Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"}) // run 1: unprofiled
	EnableProfiling(true)
	run := runs.Begin()
	EnableProfiling(false)
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindNode, Node: 0, Label: "ETH[Asian], 2, 5", N: 1})
	run.Trace(trace.Event{Kind: trace.KindAssign, Node: 0, Span: 1, Depth: 1})
	run.Trace(trace.Event{Kind: trace.KindExhausted, Node: 1, Parent: 1, Depth: 1, Enumerated: 2, RejectedUpper: 2, Blocker: 0})
	run.Trace(trace.Event{Kind: trace.KindBacktrack, Node: 0, Span: 1, Depth: 1})
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 1, Backtracks: 1, Worker: -1})
	run.Trace(trace.Event{Kind: trace.KindPhaseEnd, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "infeasible", Err: "no diverse clustering",
		Metrics: &trace.RunMetrics{RunID: run.ID(), Steps: 1, Backtracks: 1}})
	if run.ID() != 2 {
		t.Fatalf("profiled run ID = %d, want 2", run.ID())
	}

	srv := httptest.NewServer(NewMux(NewRegistry(), runs))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/debug/diva/profile/")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("listing: status %d, type %q", code, hdr.Get("Content-Type"))
	}
	var listing struct {
		Profiling bool     `json:"profiling_enabled"`
		Runs      []uint64 `json:"runs"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("listing is not JSON: %v\n%s", err, body)
	}
	if len(listing.Runs) != 1 || listing.Runs[0] != 2 {
		t.Fatalf("listing runs = %v, want [2]", listing.Runs)
	}

	// The full document: required top-level fields of the Profile schema.
	code, body, _ = get(t, srv, "/debug/diva/profile/2")
	if code != http.StatusOK {
		t.Fatalf("profile status = %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("profile is not JSON: %v", err)
	}
	for _, key := range []string{"metrics", "outcome", "duration_ns", "phases", "root", "nodes", "span_count", "last_exhaustion"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("profile document missing %q:\n%s", key, body)
		}
	}
	if doc["outcome"] != "infeasible" {
		t.Fatalf("outcome = %v", doc["outcome"])
	}

	code, body, _ = get(t, srv, "/debug/diva/profile/2?format=trace")
	var tdoc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &tdoc) != nil || len(tdoc.TraceEvents) == 0 {
		t.Fatalf("trace format: status %d, body %q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/diva/profile/2?format=folded")
	if code != http.StatusOK || !strings.Contains(body, "search") {
		t.Fatalf("folded format: status %d, body %q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/diva/profile/2?format=summary")
	if code != http.StatusOK || !strings.Contains(body, "outcome: infeasible") {
		t.Fatalf("summary format: status %d, body %q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/diva/profile/2?format=explain")
	var ex struct {
		Verdict  string           `json:"verdict"`
		Culprits []map[string]any `json:"culprits"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &ex) != nil {
		t.Fatalf("explain format: status %d, body %q", code, body)
	}
	if ex.Verdict != "upper-bound-pruned" || len(ex.Culprits) == 0 {
		t.Fatalf("explain = %+v", ex)
	}

	if code, _, _ = get(t, srv, "/debug/diva/profile/99"); code != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", code)
	}
	if code, _, _ = get(t, srv, "/debug/diva/profile/1"); code != http.StatusNotFound {
		t.Fatalf("unprofiled run: status %d, want 404", code)
	}
	if code, _, _ = get(t, srv, "/debug/diva/profile/notanumber"); code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d, want 400", code)
	}
	if code, _, _ = get(t, srv, "/debug/diva/profile/2?format=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad format: status %d, want 400", code)
	}
}

// TestProfilingToggle pins the engine-facing switch.
func TestProfilingToggle(t *testing.T) {
	if ProfilingEnabled() {
		t.Fatal("profiling must default to off")
	}
	EnableProfiling(true)
	if !ProfilingEnabled() {
		t.Fatal("EnableProfiling(true) did not stick")
	}
	EnableProfiling(false)
}
