package obs

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

// TestShutdownUnblocksSSEStream is the graceful-shutdown contract: an open
// /debug/diva/events stream parks its handler in a select loop, and
// http.Server.Shutdown waits for active handlers — so Shutdown must
// force-disconnect event streams (DropAll) or it would hang forever on any
// connected follower.
func TestShutdownUnblocksSSEStream(t *testing.T) {
	runs := NewRunRegistry(4)
	srv, err := serve("127.0.0.1:0", NewRegistry(), runs)
	if err != nil {
		t.Fatal(err)
	}
	run := runs.Begin()
	defer run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})

	base := "http://" + srv.Addr().String()
	resp, err := http.Get(base + "/debug/diva/events?run=all")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read the replayed phase-start frame: the handler is now provably past
	// replay and inside its live streaming loop.
	sc := bufio.NewScanner(resp.Body)
	replayed := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: phase-start") {
			replayed = true
		}
		if replayed && sc.Text() == "" {
			break
		}
	}
	if !replayed {
		t.Fatal("no replayed frame arrived before shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an open SSE stream: %v", err)
	}
	if waited := time.Since(start); waited > 4*time.Second {
		t.Fatalf("Shutdown took %v — the event stream held it open", waited)
	}
	// The stream ends rather than blocking the reader forever.
	for sc.Scan() {
	}
	// And the listener no longer accepts connections.
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Fatal("listener still accepting requests after Shutdown")
	}
}
