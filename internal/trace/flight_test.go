package trace

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRetainsTail(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Trace(Event{Kind: KindAssign, Node: i})
	}
	if f.Seen() != 10 {
		t.Fatalf("Seen = %d, want 10", f.Seen())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want ring capacity 4", len(snap))
	}
	for i, e := range snap {
		wantSeq := uint64(7 + i)
		if e.Seq != wantSeq {
			t.Fatalf("entry %d Seq = %d, want %d (oldest-first tail)", i, e.Seq, wantSeq)
		}
		if e.Event.Node != int(wantSeq)-1 {
			t.Fatalf("entry %d Node = %d, want %d", i, e.Event.Node, wantSeq-1)
		}
	}
}

func TestFlightRecorderPartialFill(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Trace(Event{Kind: KindPhaseStart, Phase: PhaseBind})
	f.Trace(Event{Kind: KindPhaseEnd, Phase: PhaseBind, Elapsed: time.Millisecond})
	snap := f.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot length = %d, want 2", len(snap))
	}
	if snap[0].Seq != 1 || snap[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", snap[0].Seq, snap[1].Seq)
	}
	if snap[0].At > snap[1].At {
		t.Fatalf("offsets not monotone: %v then %v", snap[0].At, snap[1].At)
	}
}

func TestFlightRecorderDefaultCapacity(t *testing.T) {
	f := NewFlightRecorder(0)
	for i := 0; i < DefaultFlightCapacity+5; i++ {
		f.Trace(Event{Kind: KindBacktrack, Node: i})
	}
	if got := len(f.Snapshot()); got != DefaultFlightCapacity {
		t.Fatalf("retained %d events, want DefaultFlightCapacity %d", got, DefaultFlightCapacity)
	}
}

// TestFlightRecorderConcurrent drives the recorder from several goroutines
// (portfolio heartbeats are concurrent) and asserts the snapshot holds a
// consistent, gap-free tail. Run under -race via `make race`.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Trace(Event{Kind: KindProgress, Worker: w, Steps: i})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			f.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := f.Snapshot()
	if len(snap) != 64 {
		t.Fatalf("retained %d events, want 64", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("gap in tail: seq %d follows %d", snap[i].Seq, snap[i-1].Seq)
		}
	}
	if f.Seen() != 2000 {
		t.Fatalf("Seen = %d, want 2000", f.Seen())
	}
}

// TestFlightEntryJSONRoundTrip pins the wire format: kind travels as its
// String form, and every populated field survives marshal → unmarshal (the
// history ledger stores snapshots on failed runs).
func TestFlightEntryJSONRoundTrip(t *testing.T) {
	entries := []FlightEntry{
		{Seq: 1, At: time.Millisecond, Event: Event{Kind: KindPhaseStart, Phase: PhaseColor}},
		{Seq: 2, At: 2 * time.Millisecond, Event: Event{
			Kind: KindExhausted, Node: 3, N: 4, Depth: 2,
			Enumerated: 7, RejectedUpper: 2, Blocker: 5,
		}},
		{Seq: 3, At: 3 * time.Millisecond, Event: Event{
			Kind: KindProgress, Steps: 100, Backtracks: 9, Candidates: 42,
			CacheHits: 5, CacheMisses: 6, Depth: 8, Worker: -1,
		}},
		{Seq: 4, At: 4 * time.Millisecond, Event: Event{Kind: KindCacheHit, Node: 2, N: 3, Depth: 5}},
		{Seq: 5, At: 5 * time.Millisecond, Event: Event{Kind: KindRunEnd, Label: "error", Elapsed: time.Second,
			Err: "boom", Metrics: &RunMetrics{
				RunID: 3, Total: time.Second, Steps: 7, WinnerStrategy: "Basic", Accuracy: -1,
				Phases: []PhaseTiming{{Phase: PhaseBind, Duration: time.Millisecond}},
			}}},
		{Seq: 6, At: 6 * time.Millisecond, Event: Event{Kind: KindEdge, Node: 1, N: 2, Conflict: 0.25,
			Strategy: "s", Span: 9, Parent: 8, Label: "l"}},
	}
	data, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	// The exact bytes are part of the flight, SSE and ledger formats: key
	// order, omitted zero fields and the always-present node/n/depth/worker.
	const want = `[{"seq":1,"at_ns":1000000,"kind":"phase-start","phase":"color","node":0,"n":0,"depth":0,"worker":0},` +
		`{"seq":2,"at_ns":2000000,"kind":"exhausted","node":3,"n":4,"depth":2,"worker":0,"enumerated":7,"rejected_upper":2,"blocker":5},` +
		`{"seq":3,"at_ns":3000000,"kind":"progress","node":0,"n":0,"depth":8,"worker":-1,"steps":100,"backtracks":9,"candidates":42,"cache_hits":5,"cache_misses":6},` +
		`{"seq":4,"at_ns":4000000,"kind":"cache-hit","node":2,"n":3,"depth":5,"worker":0},` +
		`{"seq":5,"at_ns":5000000,"kind":"run-end","elapsed_ns":1000000000,"node":0,"n":0,"depth":0,"worker":0,"label":"error",` +
		`"metrics":{"run_id":3,"total_ns":1000000000,"phases":[{"phase":"bind","duration_ns":1000000}],"steps":7,"backtracks":0,"candidates_tried":0,"candidate_cache_hits":0,"candidate_cache_misses":0,"winner_strategy":"Basic","canceled":false,"accuracy":-1},"error":"boom"},` +
		`{"seq":6,"at_ns":6000000,"kind":"edge","node":1,"n":2,"depth":0,"worker":0,"strategy":"s","label":"l","conflict":0.25,"span":9,"parent":8}]`
	if string(data) != want {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s", data, want)
	}
	var back []FlightEntry
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("round-trip length %d, want %d", len(back), len(entries))
	}
	for i := range entries {
		if !reflect.DeepEqual(back[i], entries[i]) {
			t.Fatalf("entry %d round-trip mismatch:\n got %+v\nwant %+v", i, back[i], entries[i])
		}
	}
}

func TestFlightEntryJSONUnknownKind(t *testing.T) {
	var e FlightEntry
	err := json.Unmarshal([]byte(`{"seq":1,"kind":"no-such-kind"}`), &e)
	if err == nil || err.Error() != `trace: unknown event kind "no-such-kind"` {
		t.Fatalf("unknown kind: err = %v", err)
	}
}

// TestParseEventKind: every kind's text form parses back to the kind.
func TestParseEventKind(t *testing.T) {
	for k := KindPhaseStart; k <= KindRunEnd; k++ {
		text, err := k.MarshalText()
		if err != nil || string(text) != k.String() {
			t.Fatalf("MarshalText(%v) = %q, %v", k, text, err)
		}
		var got EventKind
		if err := got.UnmarshalText(text); err != nil || got != k {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, got, err)
		}
	}
	var k EventKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted bogus kind")
	}
}

// TestFlightRecorderNoAllocs is the hot-path contract: recording into a
// full ring allocates nothing (the obs layer attaches a recorder to every
// run, subscriber or not, so a per-event allocation would tax every search
// step). The ring is filled first: AllocsPerRun divides integers, so a few
// growth allocations spread over the runs would read as zero.
func TestFlightRecorderNoAllocs(t *testing.T) {
	f := NewFlightRecorder(128)
	ev := Event{Kind: KindAssign, Node: 1, Depth: 2, Span: 3, Parent: 1}
	for i := 0; i < 128; i++ {
		f.Trace(ev)
	}
	if avg := testing.AllocsPerRun(200, func() { f.Trace(ev) }); avg != 0 {
		t.Fatalf("FlightRecorder.Trace allocates %.1f per event on a full ring, want 0", avg)
	}
}

// TestFlightRecorderGrowsOnDemand checks the ring that grows as events
// arrive: below, at and past its capacity the snapshot is the oldest-first
// tail and Seen counts every event, the ring never holds more than its
// capacity, and a whole fill allocates at most ⌈log₂ capacity⌉+1 times.
func TestFlightRecorderGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{1, 5, 64, 100, DefaultFlightCapacity} {
		f := NewFlightRecorder(capacity)
		for n := 1; n <= 2*capacity+3; n++ {
			f.Trace(Event{Kind: KindAssign, Node: n})
			if cap(f.buf) > capacity {
				t.Fatalf("capacity %d: ring holds %d slots after %d events", capacity, cap(f.buf), n)
			}
			if f.Seen() != uint64(n) {
				t.Fatalf("capacity %d: Seen = %d after %d events", capacity, f.Seen(), n)
			}
			snap := f.Snapshot()
			if want := min(n, capacity); len(snap) != want {
				t.Fatalf("capacity %d: snapshot holds %d after %d events, want %d", capacity, len(snap), n, want)
			}
			for i, e := range snap {
				if want := n - len(snap) + 1 + i; e.Seq != uint64(want) || e.Node != want {
					t.Fatalf("capacity %d after %d events: entry %d is seq %d node %d, want %d", capacity, n, i, e.Seq, e.Node, want)
				}
			}
		}

		const runs = 10
		recs := make([]*FlightRecorder, runs+1) // AllocsPerRun adds a warm-up call
		for i := range recs {
			recs[i] = NewFlightRecorder(capacity)
		}
		next := 0
		fill := func() {
			f := recs[next]
			next++
			for i := 0; i < capacity; i++ {
				f.Trace(Event{Kind: KindAssign, Node: i})
			}
		}
		bound := 1
		for c := 1; c < capacity; c *= 2 {
			bound++
		}
		if avg := testing.AllocsPerRun(runs, fill); avg > float64(bound) {
			t.Fatalf("capacity %d: a fill allocates %.0f times, want at most ⌈log₂ cap⌉+1 = %d", capacity, avg, bound)
		}
	}
}
