package trace

import (
	"reflect"
	"testing"
	"time"
)

// TestFlightRecorderSealKeepsWindow: for every fill — empty, filling,
// exactly full and wrapped at every offset — the sealed window is the one
// Snapshot returned before the seal, Seen is unchanged, and a Record after
// the seal stores nothing.
func TestFlightRecorderSealKeepsWindow(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 8} {
		for n := 0; n <= 2*capacity+3; n++ {
			f := NewFlightRecorder(capacity)
			for i := 0; i < n; i++ {
				f.Trace(Event{Kind: KindAssign, Node: i})
			}
			before := f.Snapshot()
			f.Seal()
			if got := f.Snapshot(); !reflect.DeepEqual(got, before) {
				t.Fatalf("capacity %d, %d events: sealed window %v, want %v", capacity, n, got, before)
			}
			if f.Seen() != uint64(n) {
				t.Fatalf("capacity %d, %d events: Seen = %d after seal", capacity, n, f.Seen())
			}
			if e := f.Record(Event{Kind: KindBacktrack, Node: -1}); e.Seq != 0 {
				t.Fatalf("capacity %d, %d events: Record after seal returned seq %d, want 0", capacity, n, e.Seq)
			}
			f.Seal()
			if got := f.Snapshot(); !reflect.DeepEqual(got, before) || f.Seen() != uint64(n) {
				t.Fatalf("capacity %d, %d events: a Record or second Seal after the seal changed the window to %v (seen %d)",
					capacity, n, got, f.Seen())
			}
		}
	}
}

// TestFlightRecorderReleaseAndReuse: Release hands back the ring cleared and
// leaves the released recorder empty, and a recorder started in the
// recycled storage numbers, stamps and retains events as a fresh one does,
// without allocating while the storage suffices.
func TestFlightRecorderReleaseAndReuse(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 11; i++ {
		f.Trace(Event{Kind: KindRunEnd, Label: "old", Metrics: &RunMetrics{Steps: i}})
	}
	f.Seal()
	ring := f.Release()
	if len(ring) != 0 || cap(ring) != 8 {
		t.Fatalf("released ring has len %d cap %d, want 0 and 8", len(ring), cap(ring))
	}
	for i, e := range ring[:cap(ring)] {
		if e != (FlightEntry{}) {
			t.Fatalf("released slot %d still holds %+v", i, e)
		}
	}
	if got := f.Snapshot(); got == nil || len(got) != 0 || f.Seen() != 11 {
		t.Fatalf("released recorder: window %v, Seen %d; want an empty window and Seen 11", got, f.Seen())
	}

	start := time.Now()
	g := NewFlightRecorderFrom(ring, 8, start)
	fresh := NewFlightRecorder(8)
	for i := 0; i < 13; i++ {
		ev := Event{Kind: KindAssign, Node: i}
		if e := g.Record(ev); e.Seq != uint64(i+1) || e.At > time.Since(start) {
			t.Fatalf("recycled recorder's event %d: seq %d at %v", i, e.Seq, e.At)
		}
		fresh.Record(ev)
	}
	got, want := g.Snapshot(), fresh.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("recycled window has %d entries, fresh %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Event != want[i].Event {
			t.Fatalf("entry %d: recycled %+v, fresh %+v", i, got[i], want[i])
		}
	}

	reused := g.Release()
	ev := Event{Kind: KindAssign}
	if avg := testing.AllocsPerRun(20, func() {
		h := NewFlightRecorderFrom(reused, 8, start)
		for range 8 {
			h.Record(ev)
		}
		reused = h.Release()
	}); avg > 1 {
		t.Fatalf("a recorder in recycled storage allocates %.1f per fill, want only itself", avg)
	}
}
