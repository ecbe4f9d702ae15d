package obs

import (
	"fmt"
	"io"
	"log/slog"

	"diva/internal/trace"
)

// NewLogger builds a structured logger writing to w. format selects the
// handler: "text" (logfmt-style key=value) or "json" (one JSON object per
// line, ready for log aggregation).
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf(`obs: unknown log format %q (want "text" or "json")`, format)
}

// slogTracer adapts a slog.Logger into a trace.Tracer. Phase boundaries and
// the portfolio outcome log at Info, heartbeats at Debug; the per-node
// events (assign, backtrack, candidates, cache hits) are deliberately
// dropped — at up to a million steps per run they belong in metrics, not
// logs. slog handlers are goroutine-safe, so the adapter is too (portfolio
// heartbeats arrive concurrently).
type slogTracer struct {
	l *slog.Logger
}

// NewSlogTracer returns a trace.Tracer logging run events through l.
func NewSlogTracer(l *slog.Logger) trace.Tracer {
	return slogTracer{l: l}
}

func (t slogTracer) Trace(ev trace.Event) {
	switch ev.Kind {
	case trace.KindPhaseStart:
		t.l.Debug("phase start", slog.String("phase", string(ev.Phase)))
	case trace.KindPhaseEnd:
		t.l.Info("phase end",
			slog.String("phase", string(ev.Phase)),
			slog.Duration("elapsed", ev.Elapsed))
	case trace.KindWorkerWin:
		t.l.Info("portfolio winner",
			slog.Int("worker", ev.N),
			slog.String("strategy", ev.Strategy))
	case trace.KindProgress:
		t.l.Debug("search heartbeat",
			slog.Int("steps", ev.Steps),
			slog.Int("backtracks", ev.Backtracks),
			slog.Int("depth", ev.Depth),
			slog.Int("worker", ev.Worker))
	}
}
