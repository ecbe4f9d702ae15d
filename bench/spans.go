package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"diva/internal/trace"
)

// span is one timed call recorded by the benchmark: a layer boundary in the
// replay, or an engine phase seen through Options.Tracer.
type span struct {
	name       string
	start, end time.Time
	id, parent uint64
	run        int
	// tid separates engine spans (1) from replay spans (2) in trace viewers.
	tid int
}

// spanLog keeps spans in memory until the benchmark writes them out.
type spanLog struct {
	t0    time.Time
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// id reserves a span id, so a parent can be named before it ends.
func (l *spanLog) id() uint64 {
	l.next++
	return l.next
}

func (l *spanLog) add(s span) { l.spans = append(l.spans, s) }

// writeChrome writes the spans as Chrome trace-event JSON ("X" events, µs),
// the format cmd/tracecheck validates and Perfetto loads.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		err := enc.Encode(event{
			Name: s.name,
			Cat:  "bench",
			Ph:   "X",
			Ts:   float64(s.start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": s.run},
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// phaseTracer is the benchmark-owned Options.Tracer of the traced run: it
// turns the engine's phase events into spans and phase totals and counts
// every event it receives. The engine serializes the events it forwards, but
// the counter is atomic and phase bookkeeping locked so the tracer stays
// safe on any path.
type phaseTracer struct {
	events atomic.Int64
	mu     sync.Mutex
	open   map[trace.Phase]time.Time
	// spans, when non-nil, receives one span per phase under parent.
	spans  *spanLog
	parent uint64
	run    int
	// elapsed sums the engine's own phase durations; ends counts completed
	// phases by name.
	elapsed map[trace.Phase]time.Duration
	ends    map[trace.Phase]int
}

func newPhaseTracer() *phaseTracer {
	return &phaseTracer{
		open:    map[trace.Phase]time.Time{},
		elapsed: map[trace.Phase]time.Duration{},
		ends:    map[trace.Phase]int{},
	}
}

func (p *phaseTracer) Trace(ev trace.Event) {
	p.events.Add(1)
	switch ev.Kind {
	case trace.KindPhaseStart:
		p.mu.Lock()
		p.open[ev.Phase] = time.Now()
		p.mu.Unlock()
	case trace.KindPhaseEnd:
		now := time.Now()
		p.mu.Lock()
		defer p.mu.Unlock()
		p.elapsed[ev.Phase] += ev.Elapsed
		p.ends[ev.Phase]++
		if p.spans != nil {
			p.spans.add(span{name: "phase." + string(ev.Phase), start: p.open[ev.Phase], end: now,
				id: p.spans.id(), parent: p.parent, run: p.run, tid: 1})
		}
	}
}

// colored reports whether the run's final coloring succeeded: the suppress
// phase runs only after a successful color phase, and a sharded run that
// falls back to the monolithic path colors twice.
func (p *phaseTracer) colored() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ends[trace.PhaseColor] > 0 && p.ends[trace.PhaseColor] == p.ends[trace.PhaseSuppress]
}
