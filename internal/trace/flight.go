package trace

import (
	"sync"
	"time"
)

// DefaultFlightCapacity is the per-run flight-recorder ring size. 256 events
// cover the tail of any search — the last heartbeat plus the per-node
// activity leading up to a stall or failure — while bounding a registered
// run's ring at 57 KB. The obs run registry recycles its runs' rings,
// so in steady state a registered run records into a ring an earlier run
// already grew and allocates none of it.
const DefaultFlightCapacity = 256

// FlightEntry is one recorded event with its recorder-local sequence number
// and the offset from the recorder's creation. It marshals to a flat JSON
// object: "seq" and "at_ns" followed by the embedded Event's fields.
type FlightEntry struct {
	// Seq numbers events 1..N in arrival order across the whole run, not
	// just the retained window: Seq of the oldest retained entry tells a
	// reader how many earlier events the ring evicted.
	Seq uint64 `json:"seq"`
	// At is the event's offset from the recorder's creation.
	At time.Duration `json:"at_ns"`
	// Event is the recorded event itself.
	Event
}

// FlightRecorder is a bounded, allocation-light ring of the most recent
// trace events — a per-run "black box". Recording copies the event into a
// ring slot under a mutex. The ring starts empty (or in storage handed over
// by NewFlightRecorderFrom) and doubles as it fills, up to its capacity, so
// a fill allocates at most ⌈log₂ capacity⌉+1 times and a full ring never
// allocates: the recorder can ride the search hot path of every registered
// run. Snapshot copies the retained window out oldest-first. Seal ends
// recording and keeps the window in place, and Release hands the ring's
// storage back to its owner for reuse. It is goroutine-safe (portfolio
// workers heartbeat concurrently) and implements Tracer.
type FlightRecorder struct {
	mu       sync.Mutex
	start    time.Time
	capacity int
	buf      []FlightEntry // ring storage, never longer than capacity
	seq      uint64        // total events recorded; buf[(seq-1)%len] is newest
	sealed   bool          // Seal or Release ran: Record stores nothing
}

// NewFlightRecorder returns a recorder retaining the last capacity events
// (capacity ≤ 0 selects DefaultFlightCapacity).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return NewFlightRecorderFrom(nil, capacity, time.Now())
}

// NewFlightRecorderFrom is NewFlightRecorder with the ring's first storage
// and the clock's origin supplied by the caller: the ring fills buf's
// backing array (whatever buf held is ignored) before it grows, and entry
// offsets count from start. An owner that recycles rings (see Release)
// starts a recorder with it without allocating a ring.
func NewFlightRecorderFrom(buf []FlightEntry, capacity int, start time.Time) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{start: start, capacity: capacity, buf: buf[:0]}
}

// Trace implements Tracer: the event lands in the ring, evicting the oldest
// retained entry once the ring is full.
func (f *FlightRecorder) Trace(ev Event) { f.Record(ev) }

// Record stores ev and returns the stored entry — sequence-stamped and
// timestamped — so callers that also publish the event elsewhere (the obs
// broadcaster) reuse the ring's numbering and clock instead of keeping their
// own. After Seal it stores nothing and returns an entry with Seq 0.
func (f *FlightRecorder) Record(ev Event) FlightEntry {
	at := time.Since(f.start)
	f.mu.Lock()
	if f.sealed {
		f.mu.Unlock()
		return FlightEntry{At: at, Event: ev}
	}
	f.seq++
	e := FlightEntry{Seq: f.seq, At: at, Event: ev}
	if n := len(f.buf); n < f.capacity {
		// Filling: seq-1 == n, so appending keeps buf[(seq-1)%len] newest.
		if n == cap(f.buf) {
			f.buf = append(make([]FlightEntry, 0, min(max(2*n, 1), f.capacity)), f.buf...)
		}
		f.buf = append(f.buf, e)
	} else {
		f.buf[(f.seq-1)%uint64(n)] = e
	}
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
// safe to retain and marshal while the recorder keeps recording, and after
// the ring is released.
func (f *FlightRecorder) Snapshot() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := uint64(len(f.buf))
	out := make([]FlightEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, f.buf[(f.seq-n+i)%n])
	}
	return out
}

// Seal ends recording: every later Record stores nothing, so the retained
// window and Seen stay as they are, in place. Readers copy the window out
// with Snapshot, which unrolls the ring as it copies.
func (f *FlightRecorder) Seal() {
	f.mu.Lock()
	f.sealed = true
	f.mu.Unlock()
}

// Release seals the recorder and hands its ring storage to the caller for
// reuse: the entries are zeroed, so no event's metrics or strings stay
// reachable through the storage, and the returned slice is empty with the
// ring's capacity. Afterwards Snapshot returns an empty window; Seen is
// unchanged. The caller must be the ring's only owner: Release transfers
// the storage, it does not copy it.
func (f *FlightRecorder) Release() []FlightEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	buf := f.buf
	clear(buf)
	f.buf, f.sealed = nil, true
	return buf[:0]
}
