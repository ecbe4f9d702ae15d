package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func TestBroadcasterNeverBlocksOnSlowSubscriber(t *testing.T) {
	b := NewBroadcaster()
	sub := b.Subscribe(0, 4)
	defer b.Unsubscribe(sub)
	for i := 0; i < 100; i++ {
		b.Publish(RunEvent{RunID: 1, Entry: trace.FlightEntry{Seq: uint64(i + 1)}})
	}
	if got := b.Dropped(); got != 96 {
		t.Fatalf("broadcaster dropped %d events, want 96 (100 published into buffer 4)", got)
	}
	// The 4 buffered events are the first 4: drops discard the newest.
	ev := <-sub.Events()
	if ev.Entry.Seq != 1 {
		t.Fatalf("first buffered seq = %d, want 1", ev.Entry.Seq)
	}
}

func TestBroadcasterRunFilter(t *testing.T) {
	b := NewBroadcaster()
	all := b.Subscribe(0, 8)
	only2 := b.Subscribe(2, 8)
	defer b.Unsubscribe(all)
	defer b.Unsubscribe(only2)
	b.Publish(RunEvent{RunID: 1, Entry: trace.FlightEntry{Seq: 1}})
	b.Publish(RunEvent{RunID: 2, Entry: trace.FlightEntry{Seq: 1}})
	if n := len(all.Events()); n != 2 {
		t.Fatalf("all-runs subscriber buffered %d events, want 2", n)
	}
	if n := len(only2.Events()); n != 1 {
		t.Fatalf("run-2 subscriber buffered %d events, want 1", n)
	}
	if ev := <-only2.Events(); ev.RunID != 2 {
		t.Fatalf("run-2 subscriber got event for run %d", ev.RunID)
	}
}

func TestBroadcasterDropAllClosesSubscribers(t *testing.T) {
	b := NewBroadcaster()
	sub := b.Subscribe(0, 1)
	b.DropAll()
	select {
	case <-sub.Done():
	default:
		t.Fatal("Done not closed after DropAll")
	}
	if b.Subscribers() != 0 {
		t.Fatalf("%d subscribers after DropAll", b.Subscribers())
	}
	// Unsubscribing an already-dropped subscriber is a safe no-op.
	b.Unsubscribe(sub)
}

// TestRunTraceFeedsFlightAndBus is the registry wiring contract: a run's
// trace events land in its flight recorder and on the broadcaster even when
// the engine caller set no tracer, and the run-end event is recorded last
// and the snapshot preserved past completion.
func TestRunTraceFeedsFlightAndBus(t *testing.T) {
	reg := NewRunRegistry(4)
	sub := reg.Events().Subscribe(0, 16)
	defer reg.Events().Unsubscribe(sub)
	run := reg.Begin()
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 10, Depth: 3, Worker: -1})
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})

	events, seen, ok := reg.RunEvents(run.ID())
	if !ok {
		t.Fatalf("completed run %d unknown to RunEvents", run.ID())
	}
	if seen != 3 || len(events) != 3 {
		t.Fatalf("RunEvents: %d retained of %d seen, want 3 of 3", len(events), seen)
	}
	last := events[len(events)-1].Event
	if last.Kind != trace.KindRunEnd || last.Label != "ok" {
		t.Fatalf("terminal event = %+v, want run-end/ok", last)
	}
	if n := len(sub.Events()); n != 3 {
		t.Fatalf("subscriber buffered %d events, want 3 (2 traced + run-end)", n)
	}
	if _, _, ok := reg.RunEvents(999); ok {
		t.Fatal("RunEvents invented an unknown run")
	}
}

func TestRunEventsEndpoint(t *testing.T) {
	reg := NewRunRegistry(4)
	run := reg.Begin()
	run.Trace(trace.Event{Kind: trace.KindAssign, Node: 7, Depth: 1})
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	srv := httptest.NewServer(NewMux(NewRegistry(), reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/diva/runs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var doc struct {
		Run    uint64              `json:"run"`
		Seen   uint64              `json:"seen"`
		Events []trace.FlightEntry `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Run != 1 || doc.Seen != 2 || len(doc.Events) != 2 {
		t.Fatalf("dump = run %d, %d retained of %d seen; want run 1, 2 of 2", doc.Run, len(doc.Events), doc.Seen)
	}
	if doc.Events[0].Event.Node != 7 {
		t.Fatalf("first event = %+v", doc.Events[0].Event)
	}
	for path, want := range map[string]int{
		"/debug/diva/runs/999/events": http.StatusNotFound,
		"/debug/diva/runs/0/events":   http.StatusBadRequest,
		"/debug/diva/runs/x/events":   http.StatusBadRequest,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestSSEEndpointReplaysAndStreams drives the SSE endpoint end to end: a
// completed run's history replays on connect (so late subscribers still see
// the terminal event), and a live run's events stream as they happen.
func TestSSEEndpointReplaysAndStreams(t *testing.T) {
	reg := NewRunRegistry(4)
	done := reg.Begin()
	done.Trace(trace.Event{Kind: trace.KindProgress, Steps: 5, Worker: -1})
	done.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	live := reg.Begin()
	live.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})

	srv := httptest.NewServer(NewMux(NewRegistry(), reg))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/debug/diva/events?run=all", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Emit a live event after the subscriber connected; it must arrive after
	// the replayed history without duplicating it.
	go func() {
		time.Sleep(20 * time.Millisecond)
		live.Trace(trace.Event{Kind: trace.KindProgress, Steps: 42, Depth: 2, Worker: -1})
		live.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	}()

	type got struct {
		event string
		run   uint64
		seq   uint64
	}
	var frames []got
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			var p struct {
				Run   uint64            `json:"run"`
				Entry trace.FlightEntry `json:"entry"`
			}
			if err := json.Unmarshal([]byte(data), &p); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			frames = append(frames, got{event: event, run: p.Run, seq: p.Entry.Seq})
		}
		if event == "run-end" && len(frames) > 0 && frames[len(frames)-1].run == live.ID() && frames[len(frames)-1].event == "run-end" {
			break
		}
	}
	// Replay: run 1's progress + run-end, run 2's phase-start. Live: run 2's
	// progress + run-end. No duplicates.
	seen := make(map[got]int)
	for _, f := range frames {
		seen[f]++
		if seen[f] > 1 {
			t.Fatalf("frame %+v delivered twice", f)
		}
	}
	want := []got{
		{"progress", done.ID(), 1},
		{"run-end", done.ID(), 2},
		{"phase-start", live.ID(), 1},
		{"progress", live.ID(), 2},
		{"run-end", live.ID(), 3},
	}
	for _, w := range want {
		if seen[w] != 1 {
			t.Fatalf("missing frame %+v in %+v", w, frames)
		}
	}
}
