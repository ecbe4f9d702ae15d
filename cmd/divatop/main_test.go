package main

import (
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func TestReadSSEParsesFrames(t *testing.T) {
	stream := strings.Join([]string{
		": comment line",
		"event: phase-start",
		`data: {"run":1,"entry":{"seq":1,"at_ns":10,"kind":"phase-start","phase":"color","node":0,"n":0,"depth":0,"worker":0}}`,
		"",
		"event: progress",
		`data: {"run":1,"entry":{"seq":2,"at_ns":20,"kind":"progress","node":0,"n":0,"depth":7,"worker":-1,"steps":4096,"backtracks":12}}`,
		"",
		"event: run-end",
		`data: {"run":1,"entry":{"seq":3,"at_ns":30,"kind":"run-end","label":"ok","elapsed_ns":1000000,"node":0,"n":0,"depth":7,"worker":0,"steps":4096}}`,
		"",
	}, "\n") + "\n"
	var frames []frame
	err := readSSE(strings.NewReader(stream), func(f frame) bool {
		frames = append(frames, f)
		return true
	})
	if err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if len(frames) != 3 {
		t.Fatalf("parsed %d frames, want 3", len(frames))
	}
	if frames[0].event != "phase-start" || frames[0].entry.Event.Phase != trace.PhaseColor {
		t.Fatalf("frame 0 = %+v", frames[0])
	}
	if frames[1].entry.Event.Steps != 4096 || frames[1].entry.Event.Depth != 7 {
		t.Fatalf("frame 1 = %+v", frames[1])
	}
	if frames[2].entry.Event.Kind != trace.KindRunEnd || frames[2].entry.Event.Label != "ok" {
		t.Fatalf("frame 2 = %+v", frames[2])
	}
}

func TestReadSSEStopsWhenApplyReturnsFalse(t *testing.T) {
	stream := "event: progress\ndata: {\"run\":1,\"entry\":{\"seq\":1,\"kind\":\"progress\",\"node\":0,\"n\":0,\"depth\":0,\"worker\":0}}\n\n" +
		"event: progress\ndata: {\"run\":1,\"entry\":{\"seq\":2,\"kind\":\"progress\",\"node\":0,\"n\":0,\"depth\":0,\"worker\":0}}\n\n"
	n := 0
	if err := readSSE(strings.NewReader(stream), func(frame) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("apply ran %d times after returning false, want 1", n)
	}
}

func TestBoardRender(t *testing.T) {
	b := newBoard()
	b.apply(frame{event: "phase-start", run: 2, entry: trace.FlightEntry{
		Seq: 1, Event: trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor}}})
	b.apply(frame{event: "progress", run: 2, entry: trace.FlightEntry{
		Seq: 2, Event: trace.Event{Kind: trace.KindProgress, Steps: 1234, Depth: 9, Backtracks: 3, Nogoods: 2, Worker: -1}}})
	b.apply(frame{event: "phase-start", run: 1, entry: trace.FlightEntry{
		Seq: 1, Event: trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseBind}}})
	b.apply(frame{event: "progress", run: 1, entry: trace.FlightEntry{
		Seq: 2, Event: trace.Event{Kind: trace.KindProgress, Steps: 9000, Backtracks: 800, Worker: 1}}})
	// The run-end metrics are authoritative over a portfolio loser's larger
	// heartbeat counts.
	b.apply(frame{event: "run-end", run: 1, entry: trace.FlightEntry{
		Seq: 3, Event: trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: 42 * time.Millisecond,
			Metrics: &trace.RunMetrics{Total: 42 * time.Millisecond, Steps: 4321, Backtracks: 765, NogoodsLearned: 17}}}})
	out := b.render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render produced %d lines, want header + 2 runs:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "RUN") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Runs render in ID order: run 1 (finished) before run 2 (live).
	if f := strings.Fields(lines[1]); len(f) != 9 || f[3] != "4321" || f[4] != "765" || f[5] != "17" || f[7] != "ok" || f[8] != "42ms" {
		t.Fatalf("run 1 line = %q, want 4321 steps, 765 backtracks, 17 nogoods, outcome ok, elapsed 42ms", lines[1])
	}
	if !strings.Contains(lines[2], "color") || !strings.Contains(lines[2], "1234") || !strings.Contains(lines[2], "running") {
		t.Fatalf("run 2 line = %q, want phase color, 1234 steps, running", lines[2])
	}
}
