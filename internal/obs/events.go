package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"diva/internal/trace"
)

// DefaultSubscriberBuffer is the per-subscriber event buffer. The publisher
// never blocks: a subscriber whose buffer is full loses the event (counted by
// Broadcaster.Dropped and exported as diva_events_dropped_total), so the
// buffer only needs to absorb scheduling jitter between the search hot path
// and the subscriber's writer goroutine.
const DefaultSubscriberBuffer = 256

// RunEvent is one trace event attributed to a registered run — the unit the
// Broadcaster fans out and the SSE endpoint streams.
type RunEvent struct {
	// RunID is the emitting run's registry ID.
	RunID uint64
	// Entry is the event with its flight-recorder sequence number and offset.
	Entry trace.FlightEntry
}

// Subscriber is one Broadcaster subscription. Receive from Events; Done is
// closed when the broadcaster force-disconnects the subscriber (server
// shutdown) or Unsubscribe runs.
type Subscriber struct {
	run  uint64 // 0 subscribes to every run
	ch   chan RunEvent
	done chan struct{}
	once sync.Once
}

// Events returns the subscriber's event channel.
func (s *Subscriber) Events() <-chan RunEvent { return s.ch }

// Done is closed when the subscription ends (Unsubscribe or DropAll). Events
// already buffered remain readable after Done closes.
func (s *Subscriber) Done() <-chan struct{} { return s.done }

func (s *Subscriber) close() { s.once.Do(func() { close(s.done) }) }

// Broadcaster fans run events out to subscribers without ever blocking the
// publisher: Publish is a non-blocking send per subscriber, and a subscriber
// that isn't draining its buffer loses events (counted) rather than stalling
// the search hot path. With no subscribers Publish is a single atomic load.
type Broadcaster struct {
	nsubs   atomic.Int32
	dropped atomic.Int64
	mu      sync.Mutex
	subs    map[*Subscriber]struct{}
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[*Subscriber]struct{})}
}

// Subscribe registers a subscriber for one run (runID > 0) or all runs
// (runID == 0), with the given buffer (≤ 0 selects DefaultSubscriberBuffer).
func (b *Broadcaster) Subscribe(runID uint64, buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscriber{run: runID, ch: make(chan RunEvent, buffer), done: make(chan struct{})}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.nsubs.Add(1)
	b.mu.Unlock()
	return s
}

// Unsubscribe removes s and closes its Done channel. Idempotent.
func (b *Broadcaster) Unsubscribe(s *Subscriber) {
	b.mu.Lock()
	_, ok := b.subs[s]
	if ok {
		delete(b.subs, s)
		b.nsubs.Add(-1)
	}
	b.mu.Unlock()
	if ok {
		s.close()
	}
}

// DropAll force-disconnects every subscriber — the server's shutdown path,
// where active SSE streams must end before http.Server.Shutdown can return.
func (b *Broadcaster) DropAll() {
	b.mu.Lock()
	subs := make([]*Subscriber, 0, len(b.subs))
	for s := range b.subs {
		subs = append(subs, s)
	}
	b.subs = make(map[*Subscriber]struct{})
	b.nsubs.Store(0)
	b.mu.Unlock()
	for _, s := range subs {
		s.close()
	}
}

// Publish delivers ev to every matching subscriber, dropping it wherever the
// buffer is full. It never blocks and, with no subscribers, costs one atomic
// load — it rides the search hot path of every registered run.
func (b *Broadcaster) Publish(ev RunEvent) {
	if b.nsubs.Load() == 0 {
		return
	}
	b.mu.Lock()
	for s := range b.subs {
		if s.run != 0 && s.run != ev.RunID {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			b.dropped.Add(1)
		}
	}
	b.mu.Unlock()
}

// Dropped returns the total events dropped across all subscribers, ever. The
// process-wide registry's broadcaster exports it as
// diva_events_dropped_total.
func (b *Broadcaster) Dropped() int64 { return b.dropped.Load() }

// Subscribers returns the current subscriber count.
func (b *Broadcaster) Subscribers() int { return int(b.nsubs.Load()) }

// ssePayload is the data field of one SSE frame.
type ssePayload struct {
	Run   uint64            `json:"run"`
	Entry trace.FlightEntry `json:"entry"`
}

// eventsHandler serves GET /debug/diva/events?run={id|all} as a Server-Sent
// Events stream. On connect it replays the matching runs' flight recorders
// (so a subscriber that arrives after a short run still sees its tail and
// terminal run-end event), then streams live events until the client leaves
// or the server shuts down. Each frame's event name is the trace kind's
// String form ("progress", "run-end", …).
func eventsHandler(runs *RunRegistry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		var runID uint64
		if q := r.URL.Query().Get("run"); q != "" && q != "all" {
			id, err := strconv.ParseUint(q, 10, 64)
			if err != nil || id == 0 {
				http.Error(w, "run must be a positive run ID or \"all\"", http.StatusBadRequest)
				return
			}
			runID = id
		}
		sub := runs.Events().Subscribe(runID, 0)
		defer runs.Events().Unsubscribe(sub)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		// Replay recorded history first; remember the high-water sequence per
		// run so live events that raced the snapshot aren't written twice.
		replayed := make(map[uint64]uint64)
		for _, ev := range runs.ReplayEvents(runID) {
			writeSSE(w, ev)
			if ev.Entry.Seq > replayed[ev.RunID] {
				replayed[ev.RunID] = ev.Entry.Seq
			}
		}
		flusher.Flush()
		for {
			select {
			case ev := <-sub.Events():
				if ev.Entry.Seq <= replayed[ev.RunID] {
					continue
				}
				writeSSE(w, ev)
				flusher.Flush()
			case <-sub.Done():
				return
			case <-r.Context().Done():
				return
			}
		}
	}
}

// writeSSE writes one event as an SSE frame. Marshal errors are impossible
// for FlightEntry (flat struct of scalars), so they are ignored.
func writeSSE(w http.ResponseWriter, ev RunEvent) {
	data, err := json.Marshal(ssePayload{Run: ev.RunID, Entry: ev.Entry})
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Entry.Event.Kind, data)
}
