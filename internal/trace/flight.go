package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// DefaultFlightCapacity is the per-run flight-recorder ring size. 256 events
// cover the tail of any search — the last heartbeat plus the per-node
// activity leading up to a stall or failure — while keeping a registered
// run's fixed memory footprint at a few tens of kilobytes.
const DefaultFlightCapacity = 256

// FlightEntry is one recorded event with its recorder-local sequence number
// and the offset from the recorder's creation. Entries marshal to (and
// unmarshal from) a flat JSON object whose "kind" field is the event kind's
// String form, so dumps are self-describing without the numeric enum.
type FlightEntry struct {
	// Seq numbers events 1..N in arrival order across the whole run, not
	// just the retained window: Seq of the oldest retained entry tells a
	// reader how many earlier events the ring evicted.
	Seq uint64
	// At is the event's offset from the recorder's creation.
	At time.Duration
	// Event is the recorded event itself.
	Event Event
}

// flightJSON is the wire form of a FlightEntry. Fields meaningless for the
// entry's kind are omitted; Node, N, Depth and Worker are always present
// because zero is a meaningful value for them (node 0, worker −1 is live but
// worker 0 is not).
type flightJSON struct {
	Seq             uint64      `json:"seq"`
	AtNS            int64       `json:"at_ns"`
	Kind            string      `json:"kind"`
	Phase           string      `json:"phase,omitempty"`
	ElapsedNS       int64       `json:"elapsed_ns,omitempty"`
	Node            int         `json:"node"`
	N               int         `json:"n"`
	Depth           int         `json:"depth"`
	Worker          int         `json:"worker"`
	Strategy        string      `json:"strategy,omitempty"`
	Label           string      `json:"label,omitempty"`
	Conflict        float64     `json:"conflict,omitempty"`
	Steps           int         `json:"steps,omitempty"`
	Backtracks      int         `json:"backtracks,omitempty"`
	Candidates      int         `json:"candidates,omitempty"`
	CacheHits       int         `json:"cache_hits,omitempty"`
	CacheMisses     int         `json:"cache_misses,omitempty"`
	Nogoods         int         `json:"nogoods,omitempty"`
	NogoodHits      int         `json:"nogood_hits,omitempty"`
	Backjumps       int         `json:"backjumps,omitempty"`
	MaxBackjump     int         `json:"max_backjump,omitempty"`
	Span            uint64      `json:"span,omitempty"`
	Parent          uint64      `json:"parent,omitempty"`
	Enumerated      int         `json:"enumerated,omitempty"`
	RejectedOverlap int         `json:"rejected_overlap,omitempty"`
	RejectedUpper   int         `json:"rejected_upper,omitempty"`
	Blocker         int         `json:"blocker,omitempty"`
	Members         int         `json:"members,omitempty"`
	Skipped         int         `json:"skipped,omitempty"`
	Metrics         *RunMetrics `json:"metrics,omitempty"`
	Err             string      `json:"error,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (e FlightEntry) MarshalJSON() ([]byte, error) {
	ev := e.Event
	return json.Marshal(flightJSON{
		Seq:   e.Seq,
		AtNS:  e.At.Nanoseconds(),
		Kind:  ev.Kind.String(),
		Phase: string(ev.Phase), ElapsedNS: ev.Elapsed.Nanoseconds(),
		Node: ev.Node, N: ev.N, Depth: ev.Depth, Worker: ev.Worker,
		Strategy: ev.Strategy, Label: ev.Label, Conflict: ev.Conflict,
		Steps: ev.Steps, Backtracks: ev.Backtracks, Candidates: ev.Candidates,
		CacheHits: ev.CacheHits, CacheMisses: ev.CacheMisses,
		Nogoods: ev.Nogoods, NogoodHits: ev.NogoodHits,
		Backjumps: ev.Backjumps, MaxBackjump: ev.MaxBackjump,
		Span: ev.Span, Parent: ev.Parent,
		Enumerated: ev.Enumerated, RejectedOverlap: ev.RejectedOverlap,
		RejectedUpper: ev.RejectedUpper, Blocker: ev.Blocker,
		Members: ev.Members, Skipped: ev.Skipped,
		Metrics: ev.Metrics, Err: ev.Err,
	})
}

// UnmarshalJSON implements json.Unmarshaler (history-ledger records carry
// flight snapshots, so dumps must load back).
func (e *FlightEntry) UnmarshalJSON(data []byte) error {
	var f flightJSON
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	kind, ok := ParseEventKind(f.Kind)
	if !ok {
		return fmt.Errorf("trace: unknown event kind %q", f.Kind)
	}
	*e = FlightEntry{
		Seq: f.Seq,
		At:  time.Duration(f.AtNS),
		Event: Event{
			Kind:  kind,
			Phase: Phase(f.Phase), Elapsed: time.Duration(f.ElapsedNS),
			Node: f.Node, N: f.N, Depth: f.Depth, Worker: f.Worker,
			Strategy: f.Strategy, Label: f.Label, Conflict: f.Conflict,
			Steps: f.Steps, Backtracks: f.Backtracks, Candidates: f.Candidates,
			CacheHits: f.CacheHits, CacheMisses: f.CacheMisses,
			Nogoods: f.Nogoods, NogoodHits: f.NogoodHits,
			Backjumps: f.Backjumps, MaxBackjump: f.MaxBackjump,
			Span: f.Span, Parent: f.Parent,
			Enumerated: f.Enumerated, RejectedOverlap: f.RejectedOverlap,
			RejectedUpper: f.RejectedUpper, Blocker: f.Blocker,
			Members: f.Members, Skipped: f.Skipped,
			Metrics: f.Metrics, Err: f.Err,
		},
	}
	return nil
}

// ParseEventKind resolves an EventKind's String form back to the kind.
func ParseEventKind(s string) (EventKind, bool) {
	for k := KindPhaseStart; k <= KindRunEnd; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// FlightRecorder is a bounded, allocation-light ring of the most recent
// trace events — a per-run "black box". Recording copies the event into a
// preallocated slot under a mutex and never allocates, so the recorder can
// ride the search hot path of every registered run; Snapshot copies the
// retained window out oldest-first. It is goroutine-safe (portfolio workers
// heartbeat concurrently) and implements Tracer.
type FlightRecorder struct {
	mu    sync.Mutex
	start time.Time
	buf   []FlightEntry // ring storage, allocated once
	seq   uint64        // total events recorded; buf[(seq-1)%len] is newest
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (capacity ≤ 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{start: time.Now(), buf: make([]FlightEntry, capacity)}
}

// Trace implements Tracer: the event lands in the ring, evicting the oldest
// retained entry once the ring is full.
func (f *FlightRecorder) Trace(ev Event) { f.Record(ev) }

// Record stores ev and returns the stored entry — sequence-stamped and
// timestamped — so callers that also publish the event elsewhere (the obs
// broadcaster) reuse the ring's numbering instead of keeping their own.
func (f *FlightRecorder) Record(ev Event) FlightEntry {
	at := time.Since(f.start)
	f.mu.Lock()
	f.seq++
	e := FlightEntry{Seq: f.seq, At: at, Event: ev}
	f.buf[(f.seq-1)%uint64(len(f.buf))] = e
	f.mu.Unlock()
	return e
}

// Seen returns the total number of events recorded (including evicted ones).
func (f *FlightRecorder) Seen() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot returns a copy of the retained window, oldest first. The copy is
// safe to retain and marshal while the recorder keeps recording.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.seq
	capacity := uint64(len(f.buf))
	if n > capacity {
		n = capacity
	}
	out := make([]FlightEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, f.buf[(f.seq-n+i)%capacity])
	}
	return out
}
