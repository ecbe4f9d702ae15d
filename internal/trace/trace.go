// Package trace is the observability layer of the DIVA engine: typed run
// events (phase boundaries, per-node search activity, portfolio outcomes), a
// Tracer interface callers implement to watch a run live, the RunMetrics the
// engine attaches to every result and to the terminal KindRunEnd event, and a
// Recorder that keeps the last run's RunMetrics from that event.
//
// The paper's evaluation shows DIVA's runtime is dominated by the clustering
// and coloring phases and varies by orders of magnitude with the conflict
// rate of the constraint workload; this package makes that variance visible:
// every core.Anonymize run is decomposed into the phases Bind, BuildGraph,
// Color, Suppress, Baseline, Integrate and Verify, each timed and labeled in
// CPU profiles via runtime/pprof labels.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Phase names one stage of a DIVA run. Phases follow Algorithm 1 of the
// paper: bind the constraints, build the constraint graph, color it, suppress
// the diverse clustering, anonymize the remainder with the baseline,
// integrate (repair upper bounds), and verify the output criterion.
type Phase string

// The phases of core.Anonymize, in execution order.
const (
	PhaseBind       Phase = "bind"
	PhaseBuildGraph Phase = "build-graph"
	PhaseColor      Phase = "color"
	PhaseSuppress   Phase = "suppress"
	PhaseBaseline   Phase = "baseline"
	PhaseIntegrate  Phase = "integrate"
	PhaseVerify     Phase = "verify"
)

// Phases lists every phase in execution order.
func Phases() []Phase {
	return []Phase{PhaseBind, PhaseBuildGraph, PhaseColor, PhaseSuppress, PhaseBaseline, PhaseIntegrate, PhaseVerify}
}

// EventKind discriminates trace events.
type EventKind uint8

const (
	// KindPhaseStart marks entry into Event.Phase.
	KindPhaseStart EventKind = iota + 1
	// KindPhaseEnd marks completion of Event.Phase; Event.Elapsed holds its
	// wall time.
	KindPhaseEnd
	// KindAssign reports a color assignment to constraint-graph node
	// Event.Node during the coloring search.
	KindAssign
	// KindBacktrack reports a retracted assignment from node Event.Node.
	KindBacktrack
	// KindCandidates reports a fresh candidate enumeration for node
	// Event.Node producing Event.N clusterings.
	KindCandidates
	// KindCacheHit reports that node Event.Node's candidates were served
	// from the search's per-generation candidate cache (Event.N clusterings).
	KindCacheHit
	// KindWorkerWin reports that portfolio worker Event.N, running strategy
	// Event.Strategy, produced the winning coloring.
	KindWorkerWin
	// KindProgress is a heartbeat from inside the coloring search, emitted
	// every Options.HeartbeatEvery steps and once when the search finishes.
	// Its Steps, Backtracks, Candidates, CacheHits and CacheMisses fields
	// are the emitting search's cumulative counters at that instant (the
	// final event therefore carries the search's exact totals), Depth is the
	// number of nodes currently colored, and Worker identifies the emitting
	// portfolio worker (−1 for a sequential search). Unlike the other
	// per-step events, heartbeats are NOT suppressed for portfolio workers,
	// so in portfolio mode a caller-supplied Tracer receives KindProgress
	// events concurrently and must handle at least that kind in a
	// goroutine-safe way (Recorder and WriterTracer both are).
	KindProgress
	// KindExhausted reports that a node-visit ran out of candidates during
	// the coloring search: every candidate for Event.Node was either rejected
	// by the consistency check or descended into and backtracked out of, so
	// the search retreats past this visit. Event.N counts candidates
	// descended into, Event.Enumerated the candidates considered (raw
	// enumeration plus shared clusters), Event.RejectedUpper the
	// consistency-check rejections (all upper-bound violations), and
	// Event.Blocker the node whose upper bound rejected the most candidates
	// (−1 when none). Enumerated == 0 is true candidate exhaustion — the
	// enumerator found nothing against the current used-row set — whereas
	// RejectedUpper > 0 marks pruning by the engine's deliberately
	// conservative upper-bound consistency check (see internal/verify's
	// completeness envelope).
	KindExhausted
	// KindNode describes one constraint-graph node during the build-graph
	// phase: Event.Node is its index, Event.Label the constraint it
	// represents (σ in the paper's notation), and Event.N its neighbor count.
	KindNode
	// KindEdge describes one constraint-graph edge during the build-graph
	// phase: nodes Event.Node and Event.N share target tuples with Jaccard
	// overlap Event.Conflict (constraint.PairConflict).
	KindEdge
	// KindSplit describes one recursive cut made by a partitioner during the
	// baseline phase: Event.N is the partition size before the cut,
	// Event.Depth the recursion depth, Event.Label the attribute the
	// partition was cut on ("" for a leaf that could not be cut further), and
	// Event.Elapsed the wall time spent finding the cut. Parallel partitioners
	// emit KindSplit from worker goroutines concurrently; like KindProgress,
	// tracers must handle it in a goroutine-safe way (the engine serializes
	// events before forwarding them to a caller-supplied Tracer).
	KindSplit
	// KindShard names one connected component of the constraint graph on a
	// component-wise run (Options.Shards), emitted during the build-graph
	// phase with Event.Label "component": Event.Node is the component
	// index, Event.N its QI-pool row count and Event.Depth its constraint
	// count. It is emitted by the coordinating goroutine before any parallel
	// work starts, so tracers see it sequentially.
	KindShard
	// KindRunEnd is the terminal event of every run: core.Anonymize emits it
	// exactly once, last, through the run's whole tracer tee (a caller's
	// Options.Tracer and the run registry, which forwards it to the run's
	// profiler when profiling is on), after it has built the run's
	// RunMetrics. Event.Metrics carries those metrics — the
	// same pointer as Result.Metrics — Event.Label the outcome as
	// core.RunOutcome classifies it ("ok", "infeasible", "canceled" or
	// "error"), Event.Elapsed the run's wall time and Event.Err the error
	// text of a failed run. Consumers read the run's totals here instead of
	// re-deriving them from the stream; followers (SSE subscribers,
	// cmd/divatop) see an authoritative outcome without polling.
	KindRunEnd
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case KindPhaseStart:
		return "phase-start"
	case KindPhaseEnd:
		return "phase-end"
	case KindAssign:
		return "assign"
	case KindBacktrack:
		return "backtrack"
	case KindCandidates:
		return "candidates"
	case KindCacheHit:
		return "cache-hit"
	case KindWorkerWin:
		return "worker-win"
	case KindProgress:
		return "progress"
	case KindExhausted:
		return "exhausted"
	case KindNode:
		return "node"
	case KindEdge:
		return "edge"
	case KindSplit:
		return "split"
	case KindShard:
		return "shard"
	case KindRunEnd:
		return "run-end"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// MarshalText renders the kind as its String form, so flight dumps, SSE
// frames and ledger records are self-describing without the numeric enum.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText resolves a kind's String form back to the kind, rejecting
// unknown names.
func (k *EventKind) UnmarshalText(text []byte) error {
	for kind := KindPhaseStart; kind <= KindRunEnd; kind++ {
		if kind.String() == string(text) {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", text)
}

// Event is one typed observation from a DIVA run. Which fields are
// meaningful depends on Kind; unused fields are zero.
//
// Event is its own wire format (FlightEntry embeds it): Kind travels as its
// String form, fields meaningless for the kind are omitted, and Node, N,
// Depth and Worker are always present because zero is a meaningful value
// for them (node 0, worker 0).
type Event struct {
	Kind EventKind `json:"kind"`
	// Phase is set for KindPhaseStart and KindPhaseEnd.
	Phase Phase `json:"phase,omitempty"`
	// Elapsed is the phase wall time, set for KindPhaseEnd.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Node is the constraint-graph node index for KindAssign, KindBacktrack,
	// KindCandidates and KindCacheHit.
	Node int `json:"node"`
	// N is a kind-specific count: candidates enumerated, the winning worker
	// index for KindWorkerWin, or — for KindAssign/KindBacktrack — a batch
	// size when a portfolio winner replays its per-node counts (0 means 1).
	N int `json:"n"`
	// Depth is the number of colored nodes at the heartbeat (KindProgress)
	// or when a per-node search event (KindAssign, KindBacktrack,
	// KindCandidates, KindCacheHit, KindExhausted) was emitted.
	Depth int `json:"depth"`
	// Worker is the emitting portfolio worker for KindProgress (−1 when the
	// search runs sequentially).
	Worker int `json:"worker"`
	// Strategy is the winning worker's strategy name for KindWorkerWin.
	Strategy string `json:"strategy,omitempty"`
	// Label is the constraint rendered in the paper's notation for KindNode,
	// or the cut attribute's name for KindSplit ("" for a leaf partition).
	Label string `json:"label,omitempty"`
	// Conflict is the target-set Jaccard overlap of an edge's endpoints, set
	// for KindEdge (Event.Node and Event.N are the endpoints).
	Conflict float64 `json:"conflict,omitempty"`
	// Steps, Backtracks, Candidates, CacheHits and CacheMisses are the
	// emitting search's cumulative counters, set for KindProgress.
	Steps       int `json:"steps,omitempty"`
	Backtracks  int `json:"backtracks,omitempty"`
	Candidates  int `json:"candidates,omitempty"`
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`
	// Span identifies the search-tree node-visit a KindAssign opens and the
	// matching KindBacktrack closes. Span IDs are unique and monotone within
	// one search; 0 means "no span" (batched portfolio replays carry no
	// tree structure). Parent is the enclosing visit's span (0 at the root),
	// set on KindAssign and, for the point events KindCandidates,
	// KindCacheHit and KindExhausted, naming the visit they occurred under.
	// Together they let a consumer (internal/profile) reconstruct the
	// hierarchical search tree from the flat event stream.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Enumerated, RejectedUpper and Blocker describe a KindExhausted visit:
	// candidates considered, upper-bound rejections, and the node whose
	// upper bound rejected the most candidates (−1 when no upper-bound
	// rejection occurred).
	Enumerated    int `json:"enumerated,omitempty"`
	RejectedUpper int `json:"rejected_upper,omitempty"`
	Blocker       int `json:"blocker,omitempty"`
	// Metrics and Err are set on KindRunEnd only: the run's RunMetrics and,
	// for a failed run, its error text.
	Metrics *RunMetrics `json:"metrics,omitempty"`
	Err     string      `json:"error,omitempty"`
}

// Tracer observes run events. Implementations used with sequential runs are
// called from a single goroutine. In portfolio mode the per-step events stay
// suppressed for workers and only the coordinator emits them, but
// KindProgress heartbeats ARE forwarded from every worker concurrently:
// implementations must handle KindProgress in a goroutine-safe way (or be
// fully goroutine-safe, as Recorder and WriterTracer are) when used with
// Options.Parallel > 0 or when shared across separate Anonymize calls.
type Tracer interface {
	Trace(Event)
}

type nopTracer struct{}

func (nopTracer) Trace(Event) {}

// Nop is a Tracer that discards every event.
var Nop Tracer = nopTracer{}

type multiTracer []Tracer

func (m multiTracer) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// Tee fans events out to every non-nil tracer. It returns Nop when none
// remain and the tracer itself when exactly one does.
func Tee(tracers ...Tracer) Tracer {
	var live multiTracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return live
}

// PhaseTiming is one completed phase and its wall time.
type PhaseTiming struct {
	Phase    Phase         `json:"phase"`
	Duration time.Duration `json:"duration_ns"`
}

// RunMetrics aggregates one DIVA run: per-phase wall times in completion
// order, the coloring search effort, candidate-cache effectiveness, and the
// portfolio outcome. It is attached to core.Result on success and on the
// ErrNoDiverseClustering and ErrCanceled paths alike, so failed and canceled
// runs still report where their time went.
type RunMetrics struct {
	// RunID identifies the run in the process-wide run registry (0 when the
	// run never registered, e.g. a hand-built RunMetrics).
	RunID uint64 `json:"run_id,omitempty"`
	// Total is the wall time of the whole run.
	Total time.Duration `json:"total_ns"`
	// Phases holds completed phases in completion order. A canceled run
	// contains only the phases that finished before the cancellation.
	Phases []PhaseTiming `json:"phases"`
	// Steps, Backtracks and CandidatesTried mirror search.Stats for the
	// coloring phase (the winning worker's in portfolio mode).
	Steps           int `json:"steps"`
	Backtracks      int `json:"backtracks"`
	CandidatesTried int `json:"candidates_tried"`
	// CandidateCacheHits and CandidateCacheMisses report the search's
	// per-generation candidate cache effectiveness.
	CandidateCacheHits   int `json:"candidate_cache_hits"`
	CandidateCacheMisses int `json:"candidate_cache_misses"`
	// SigmaComponents counts the independent constraint-graph components a
	// component-wise run (Options.Shards) colored separately; it is zero on
	// joint runs. A run whose component-wise coloring was rejected and redone
	// jointly keeps the rejected attempt's components.
	SigmaComponents int `json:"sigma_components,omitempty"`
	// PortfolioWorkers is the number of concurrent searches (0 = sequential).
	PortfolioWorkers int `json:"portfolio_workers,omitempty"`
	// WinnerWorker and WinnerStrategy identify the portfolio winner;
	// WinnerStrategy is empty for sequential runs.
	WinnerWorker   int    `json:"winner_worker,omitempty"`
	WinnerStrategy string `json:"winner_strategy,omitempty"`
	// Canceled reports that the run ended with ErrCanceled (context
	// cancellation or deadline expiry).
	Canceled bool `json:"canceled"`
	// SuppressedCells and Accuracy describe the published relation on
	// successful runs: the number of suppressed QI cells (★s) and the
	// fraction of QI cells preserved. Both are zero on error paths, where no
	// relation is published; Accuracy is −1 there to distinguish "no output"
	// from a fully suppressed one.
	SuppressedCells int     `json:"suppressed_cells,omitempty"`
	Accuracy        float64 `json:"accuracy,omitempty"`
}

// PhaseDuration sums the wall time recorded for ph (a phase may appear once
// per run; summing keeps the accessor total under repeated phases).
func (m *RunMetrics) PhaseDuration(ph Phase) time.Duration {
	var d time.Duration
	for _, pt := range m.Phases {
		if pt.Phase == ph {
			d += pt.Duration
		}
	}
	return d
}

// PhasesTotal sums all recorded phase wall times; it is within instrumentation
// overhead of Total on a run that completed every phase.
func (m *RunMetrics) PhasesTotal() time.Duration {
	var d time.Duration
	for _, pt := range m.Phases {
		d += pt.Duration
	}
	return d
}

// String renders a one-line summary.
func (m *RunMetrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %v", m.Total)
	for _, pt := range m.Phases {
		fmt.Fprintf(&b, " %s=%v", pt.Phase, pt.Duration)
	}
	fmt.Fprintf(&b, " steps=%d backtracks=%d", m.Steps, m.Backtracks)
	if m.WinnerStrategy != "" {
		fmt.Fprintf(&b, " winner=%s(worker %d)", m.WinnerStrategy, m.WinnerWorker)
	}
	if m.Canceled {
		b.WriteString(" canceled")
	}
	return b.String()
}

// Recorder is a goroutine-safe Tracer that keeps the RunMetrics of the last
// KindRunEnd it received. Used as Options.Tracer, its Snapshot equals the
// run's Result.Metrics.
type Recorder struct {
	mu sync.Mutex
	m  RunMetrics
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Trace implements Tracer.
func (r *Recorder) Trace(ev Event) {
	if ev.Kind != KindRunEnd || ev.Metrics == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m = *ev.Metrics
}

// Snapshot returns a copy of the last run's metrics, safe to retain.
func (r *Recorder) Snapshot() *RunMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.m
	m.Phases = append([]PhaseTiming(nil), r.m.Phases...)
	return &m
}

// WriterTracer logs events as text lines, one per event: phase boundaries,
// portfolio outcomes and the Σ components. Per-node search events are not
// printed; a Profiler or the flight recorder keeps them. Each event is
// rendered into a private buffer and issued as a single Write, so trace
// lines never shear with other writers — slog, the engine's own stderr
// output — sharing the destination.
type WriterTracer struct {
	mu    sync.Mutex
	w     io.Writer
	buf   []byte
	start time.Time
}

// NewWriter returns a WriterTracer logging to w. Timestamps are offsets from
// the tracer's creation.
func NewWriter(w io.Writer) *WriterTracer {
	return &WriterTracer{w: w, start: time.Now()}
}

// Trace implements Tracer.
func (t *WriterTracer) Trace(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := time.Since(t.start).Round(time.Microsecond)
	b := t.buf[:0]
	switch ev.Kind {
	case KindPhaseStart:
		b = fmt.Appendf(b, "trace %10s  phase %-11s start\n", at, ev.Phase)
	case KindPhaseEnd:
		b = fmt.Appendf(b, "trace %10s  phase %-11s end   %v\n", at, ev.Phase, ev.Elapsed.Round(time.Microsecond))
	case KindWorkerWin:
		b = fmt.Appendf(b, "trace %10s  portfolio worker %d (%s) won\n", at, ev.N, ev.Strategy)
	case KindShard:
		b = fmt.Appendf(b, "trace %10s  shard component %d: %d constraints over %d pool rows\n", at, ev.Node, ev.Depth, ev.N)
	default:
		return
	}
	t.buf = b
	t.w.Write(b)
}

// ProgressOnly returns a Tracer forwarding only KindProgress heartbeats to
// tr and discarding every other event. The portfolio coloring and the
// sharded engine wrap worker tracers with it: per-step events from
// concurrently racing searches would interleave nondeterministically (and
// carry clashing span IDs), but liveness heartbeats must keep flowing. A nil
// or Nop tr returns Nop.
func ProgressOnly(tr Tracer) Tracer {
	if tr == nil || tr == Nop {
		return Nop
	}
	return progressOnlyTracer{dst: tr}
}

type progressOnlyTracer struct{ dst Tracer }

func (p progressOnlyTracer) Trace(ev Event) {
	if ev.Kind == KindProgress {
		p.dst.Trace(ev)
	}
}

// Synchronized wraps tr behind a mutex so goroutines may share it: a
// parallel Mondrian emits KindSplit events from its workers, and the
// component-wise engine's searches send heartbeats from theirs.
// The returned Tracer serializes every Trace call. A nil or Nop tr returns
// Nop (no lock needed to discard).
func Synchronized(tr Tracer) Tracer {
	if tr == nil || tr == Nop {
		return Nop
	}
	return &syncTracer{dst: tr}
}

type syncTracer struct {
	mu  sync.Mutex
	dst Tracer
}

func (s *syncTracer) Trace(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dst.Trace(ev)
}

// FormatPhaseSeconds renders a phase→seconds map deterministically (phase
// execution order first, unknown phases alphabetically last).
func FormatPhaseSeconds(sec map[Phase]float64) string {
	known := Phases()
	rank := make(map[Phase]int, len(known))
	for i, ph := range known {
		rank[ph] = i + 1
	}
	keys := make([]Phase, 0, len(sec))
	for ph := range sec {
		keys = append(keys, ph)
	}
	sort.Slice(keys, func(i, j int) bool {
		ri, rj := rank[keys[i]], rank[keys[j]]
		if ri != rj {
			if ri == 0 {
				return false
			}
			if rj == 0 {
				return true
			}
			return ri < rj
		}
		return keys[i] < keys[j]
	})
	parts := make([]string, len(keys))
	for i, ph := range keys {
		parts[i] = fmt.Sprintf("%s=%.3fs", ph, sec[ph])
	}
	return strings.Join(parts, " ")
}
