package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/obs"
	"diva/internal/trace"
)

// serve serves h on a test server and returns the server and its host:port.
func serve(t *testing.T, h http.Handler) (*httptest.Server, string) {
	t.Helper()
	srv := httptest.NewServer(h)
	return srv, strings.TrimPrefix(srv.URL, "http://")
}

// TestOnceRendersRegistry: -once renders the registry's view of a finished
// run and a live one, in ID order, as soon as one run has completed.
func TestOnceRendersRegistry(t *testing.T) {
	reg := obs.NewRunRegistry(4)
	run1, run2 := reg.Begin(), reg.Begin()
	defer run2.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	run2.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run2.Trace(trace.Event{Kind: trace.KindProgress, Steps: 1234, Depth: 9, Backtracks: 3, Worker: -1})
	run1.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseBind})
	run1.Trace(trace.Event{Kind: trace.KindProgress, Steps: 9000, Backtracks: 800, Worker: 1})
	// The run-end metrics are authoritative over a portfolio loser's larger
	// heartbeat counts.
	run1.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: 42 * time.Millisecond,
		Metrics: &trace.RunMetrics{Total: 42 * time.Millisecond, Steps: 4321, Backtracks: 765}})
	srv, addr := serve(t, obs.NewMux(obs.Metrics, reg))
	defer srv.Close()

	var out strings.Builder
	if err := follow(&out, addr, 0, time.Millisecond, true, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render produced %d lines, want header + 2 runs:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "RUN") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Runs render in ID order: run 1 (finished) before run 2 (live).
	if f := strings.Fields(lines[1]); len(f) != 8 || f[3] != "4321" || f[4] != "765" || f[6] != "ok" || f[7] != "42ms" {
		t.Fatalf("run 1 line = %q, want 4321 steps, 765 backtracks, outcome ok, elapsed 42ms", lines[1])
	}
	if f := strings.Fields(lines[2]); len(f) != 7 || f[1] != "color" || f[3] != "1234" || f[6] != "running" {
		t.Fatalf("run 2 line = %q, want phase color, 1234 steps, running, no elapsed", lines[2])
	}
}

// TestFollowerEndsWhenServerGoes: a failed first poll is an error; once a
// poll has succeeded, a failed one ends the follower, and -once still
// prints the last snapshot.
func TestFollowerEndsWhenServerGoes(t *testing.T) {
	reg := obs.NewRunRegistry(4)
	run := reg.Begin()
	defer run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 55, Worker: -1})
	mux := obs.NewMux(obs.Metrics, reg)
	polled := make(chan struct{}, 1)
	srv, addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		select {
		case polled <- struct{}{}:
		default:
		}
	}))

	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- follow(&out, addr, run.ID(), time.Millisecond, true, false) }()
	<-polled
	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("follower after a successful poll: %v", err)
	}
	if f := strings.Fields(strings.Split(out.String(), "\n")[1]); len(f) != 7 || f[3] != "55" || f[6] != "running" {
		t.Fatalf("last snapshot = %q, want the live run with 55 steps", out.String())
	}

	if err := follow(&out, addr, 0, time.Millisecond, true, false); err == nil {
		t.Fatal("a failed first poll must be an error")
	}
}
