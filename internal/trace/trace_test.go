package trace

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRecorderAggregates: a Recorder's snapshot is a detached copy of the
// last run-end event's metrics; phases, component count and winner come
// with it.
func TestRecorderAggregates(t *testing.T) {
	r := NewRecorder()
	run := &RunMetrics{
		Phases: []PhaseTiming{
			{Phase: PhaseBind, Duration: 2 * time.Millisecond},
			{Phase: PhaseColor, Duration: 5 * time.Millisecond},
		},
		SigmaComponents: 2, WinnerWorker: 2, WinnerStrategy: "MaxFanOut",
	}
	r.Trace(Event{Kind: KindRunEnd, Label: "ok", Metrics: run})

	m := r.Snapshot()
	if !reflect.DeepEqual(*m, *run) {
		t.Fatalf("snapshot = %+v, want %+v", *m, *run)
	}
	if got := m.PhaseDuration(PhaseColor); got != 5*time.Millisecond {
		t.Fatalf("PhaseDuration(color) = %v", got)
	}
	if got := m.PhasesTotal(); got != 7*time.Millisecond {
		t.Fatalf("PhasesTotal = %v", got)
	}

	// The snapshot is detached from the event's metrics.
	run.Phases[0].Duration = time.Hour
	if m.Phases[0].Duration != 2*time.Millisecond {
		t.Fatal("snapshot shares phases with the run-end metrics")
	}
	if s := m.String(); !strings.Contains(s, "winner=MaxFanOut") {
		t.Fatalf("String() = %q", s)
	}
}

func TestTee(t *testing.T) {
	if got := Tee(nil, nil); got != Nop {
		t.Fatalf("Tee(nil, nil) = %T, want Nop", got)
	}
	r := NewRecorder()
	if got := Tee(nil, r); got != Tracer(r) {
		t.Fatalf("Tee(nil, r) = %T, want the recorder itself", got)
	}
	r2 := NewRecorder()
	Tee(r, r2).Trace(Event{Kind: KindRunEnd, Metrics: &RunMetrics{Steps: 3}})
	if r.Snapshot().Steps != 3 || r2.Snapshot().Steps != 3 {
		t.Fatal("Tee did not fan out")
	}
}

func TestWriterTracer(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Trace(Event{Kind: KindPhaseStart, Phase: PhaseColor})
	w.Trace(Event{Kind: KindAssign, Node: 7}) // per-node events are not printed
	w.Trace(Event{Kind: KindPhaseEnd, Phase: PhaseColor, Elapsed: time.Millisecond})
	w.Trace(Event{Kind: KindWorkerWin, N: 1, Strategy: "Basic"})
	out := b.String()
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want 3 lines, got %q", out)
	}
	for _, want := range []string{"phase color", "start", "end", "worker 1 (Basic) won"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output %q missing %q", out, want)
		}
	}
}

// countingWriter records every Write call it receives.
type countingWriter struct {
	writes []string
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes = append(c.writes, string(p))
	return len(p), nil
}

// TestWriterTracerAtomicWrites pins the stderr-interleaving fix: every
// rendered event must reach the underlying writer as exactly one Write call
// (one complete line), so -trace output cannot shear with slog lines sharing
// the same file descriptor.
func TestWriterTracerAtomicWrites(t *testing.T) {
	var cw countingWriter
	w := NewWriter(&cw)
	events := []Event{
		{Kind: KindPhaseStart, Phase: PhaseBuildGraph},
		{Kind: KindShard, Label: "component", Node: 0, N: 40, Depth: 3},
		{Kind: KindPhaseEnd, Phase: PhaseBuildGraph, Elapsed: time.Millisecond},
		{Kind: KindPhaseStart, Phase: PhaseColor},
		{Kind: KindWorkerWin, N: 1, Strategy: "Basic"},
		{Kind: KindPhaseEnd, Phase: PhaseColor, Elapsed: time.Millisecond},
		{Kind: KindPhaseStart, Phase: PhaseBaseline},
		{Kind: KindPhaseEnd, Phase: PhaseBaseline, Elapsed: time.Millisecond},
	}
	for _, ev := range events {
		w.Trace(ev)
	}
	if len(cw.writes) != len(events) {
		t.Fatalf("%d events produced %d Write calls; each event must be one atomic write", len(events), len(cw.writes))
	}
	for i, s := range cw.writes {
		if !strings.HasSuffix(s, "\n") || strings.Count(s, "\n") != 1 {
			t.Fatalf("write %d is not exactly one line: %q", i, s)
		}
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{KindPhaseStart, KindPhaseEnd, KindAssign, KindBacktrack, KindCandidates, KindCacheHit, KindWorkerWin}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "EventKind(") || seen[s] {
			t.Fatalf("bad or duplicate name %q for kind %d", s, k)
		}
		seen[s] = true
	}
	if s := EventKind(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown kind = %q", s)
	}
}

func TestFormatPhaseSeconds(t *testing.T) {
	got := FormatPhaseSeconds(map[Phase]float64{
		PhaseVerify: 0.25,
		PhaseBind:   1.5,
		"custom":    0.125,
		PhaseColor:  2,
	})
	want := "bind=1.500s color=2.000s verify=0.250s custom=0.125s"
	if got != want {
		t.Fatalf("FormatPhaseSeconds = %q, want %q", got, want)
	}
}

// TestFormatPhaseSecondsGolden locks the edge cases of the phase formatter:
// empty input, a single phase, and unknown phases sorting after known ones
// in name order.
func TestFormatPhaseSecondsGolden(t *testing.T) {
	cases := []struct {
		name string
		in   map[Phase]float64
		want string
	}{
		{"empty", nil, ""},
		{"single", map[Phase]float64{PhaseColor: 0.5}, "color=0.500s"},
		{"unknown-sorted", map[Phase]float64{"zeta": 1, "alpha": 2},
			"alpha=2.000s zeta=1.000s"},
		{"mixed", map[Phase]float64{"custom": 3, PhaseBind: 1},
			"bind=1.000s custom=3.000s"},
	}
	for _, c := range cases {
		if got := FormatPhaseSeconds(c.in); got != c.want {
			t.Fatalf("%s: FormatPhaseSeconds = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestRunMetricsStringGolden locks the one-line run summary format.
func TestRunMetricsStringGolden(t *testing.T) {
	cases := []struct {
		name string
		m    RunMetrics
		want string
	}{
		{"minimal",
			RunMetrics{Total: 1500 * time.Millisecond, Steps: 42, Backtracks: 7},
			"total 1.5s steps=42 backtracks=7"},
		{"phases-winner-canceled",
			RunMetrics{
				Total: 2500 * time.Millisecond,
				Phases: []PhaseTiming{
					{Phase: PhaseBind, Duration: 2 * time.Millisecond},
					{Phase: PhaseColor, Duration: 5 * time.Millisecond},
				},
				Steps: 10, Backtracks: 2,
				WinnerStrategy: "MaxFanOut", WinnerWorker: 1,
				Canceled: true,
			},
			"total 2.5s bind=2ms color=5ms steps=10 backtracks=2 winner=MaxFanOut(worker 1) canceled"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Fatalf("%s: String() = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestRecorderSearchCounters: the search counters are the run-end
// metrics'; heartbeats and per-step events leave the snapshot untouched,
// and a later run's run-end replaces an earlier one's.
func TestRecorderSearchCounters(t *testing.T) {
	r := NewRecorder()
	r.Trace(Event{Kind: KindProgress, Steps: 40, Backtracks: 5})
	r.Trace(Event{Kind: KindAssign, Node: 2, N: 7})
	r.Trace(Event{Kind: KindCandidates, Node: 1, N: 5})
	if m := r.Snapshot(); !reflect.DeepEqual(*m, RunMetrics{}) {
		t.Fatalf("recorder before run-end = %+v, want zero", *m)
	}
	want := RunMetrics{Steps: 100, Backtracks: 20, CandidatesTried: 400,
		CandidateCacheHits: 30, CandidateCacheMisses: 10}
	r.Trace(Event{Kind: KindRunEnd, Label: "infeasible", Metrics: &RunMetrics{Steps: 1}})
	r.Trace(Event{Kind: KindRunEnd, Label: "ok", Metrics: &want})
	r.Trace(Event{Kind: KindProgress, Steps: 500})
	if m := r.Snapshot(); !reflect.DeepEqual(*m, want) {
		t.Fatalf("recorder = %+v, want %+v", *m, want)
	}
}
