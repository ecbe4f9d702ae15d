package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func TestNewLoggerFormats(t *testing.T) {
	var b bytes.Buffer
	for _, format := range []string{"", "text", "json"} {
		b.Reset()
		l, err := NewLogger(&b, format, slog.LevelInfo)
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		l.Info("hello")
		if b.Len() == 0 {
			t.Fatalf("format %q produced no output", format)
		}
	}
	if _, err := NewLogger(&b, "xml", slog.LevelInfo); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestSlogTracer(t *testing.T) {
	var b bytes.Buffer
	l, err := NewLogger(&b, "text", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSlogTracer(l)
	tr.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	tr.Trace(trace.Event{Kind: trace.KindPhaseEnd, Phase: trace.PhaseColor, Elapsed: 2 * time.Millisecond})
	tr.Trace(trace.Event{Kind: trace.KindProgress, Steps: 10, Backtracks: 1, Depth: 4, Worker: 0})
	tr.Trace(trace.Event{Kind: trace.KindWorkerWin, N: 2, Strategy: "MaxFanOut"})
	out := b.String()
	for _, want := range []string{"phase start", "phase end", "search heartbeat", "portfolio winner", "strategy=MaxFanOut"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log missing %q:\n%s", want, out)
		}
	}
	// Per-node events are deliberately not logged.
	b.Reset()
	tr.Trace(trace.Event{Kind: trace.KindAssign, Node: 3})
	tr.Trace(trace.Event{Kind: trace.KindCacheHit, Node: 3, N: 5})
	if b.Len() != 0 {
		t.Fatalf("per-node events leaked into logs:\n%s", b.String())
	}
}
