package obs

import (
	"slices"
	"sync"
	"testing"
	"time"

	"diva/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// traceOwnRun records n events into run, each carrying the run's ID as its
// Node so a dump can be checked for foreign events, then ends it with
// outcome.
func traceOwnRun(run *Run, n int, outcome string) {
	id := int(run.ID())
	for i := 0; i < n; i++ {
		run.Trace(trace.Event{Kind: trace.KindAssign, Node: id, N: i})
	}
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Node: id, Label: outcome})
}

// checkOwnWindow fails unless entries are a gap-free run of sequence
// numbers whose events all belong to run id.
func checkOwnWindow(t *testing.T, what string, id uint64, entries []trace.FlightEntry) {
	t.Helper()
	for i, e := range entries {
		if e.Event.Node != int(id) {
			t.Errorf("%s of run %d: entry %d (seq %d) belongs to run %d", what, id, i, e.Seq, e.Event.Node)
			return
		}
		if i > 0 && e.Seq != entries[i-1].Seq+1 {
			t.Errorf("%s of run %d: seq %d follows %d", what, id, e.Seq, entries[i-1].Seq)
			return
		}
	}
}

// TestFlightRingOwnership drives more than keep concurrent runs, so rings
// are evicted and recycled while readers dump them. Every dump must be a
// gap-free window of its own run; a dump already returned must not change
// when its ring is later recycled; a late Snapshot of an evicted run shows
// its own window or nothing; and a failed run's owner, which copies the
// window for the history ledger before Release, still finds the whole window
// after the run has been evicted. Run it under -race (make race).
func TestFlightRingOwnership(t *testing.T) {
	const (
		keep     = DefaultCompletedRuns
		workers  = keep + 8
		perW     = 4
		failures = 4
	)
	reg := NewRunRegistry(keep)
	// Run sizes cover a partial ring and rings wrapped past capacity.
	size := func(i int) int { return []int{5, 120, trace.DefaultFlightCapacity + 40}[i%3] }

	var (
		mu       sync.Mutex
		finished []*Run
		kept     [][2][]trace.FlightEntry // a returned dump and its copy
	)
	keepDump := func(d []trace.FlightEntry) {
		mu.Lock()
		if len(d) > 0 && len(kept) < 256 {
			kept = append(kept, [2][]trace.FlightEntry{d, slices.Clone(d)})
		}
		mu.Unlock()
	}

	// Failed runs end first, then wait to be evicted before copying their
	// window, as core.Anonymize's ledger deposit would after a slow start.
	failed := make([]*Run, failures)
	for i := range failed {
		failed[i] = reg.Begin()
		traceOwnRun(failed[i], size(i), "infeasible")
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch g {
				case 0:
					id := uint64(i%(workers*perW+failures)) + 1
					if events, seen, ok := reg.RunEvents(id); ok {
						checkOwnWindow(t, "RunEvents", id, events)
						if n := uint64(len(events)); n > 0 && events[n-1].Seq != seen && events[n-1].Event.Kind == trace.KindRunEnd {
							t.Errorf("RunEvents of completed run %d ends at seq %d, Seen %d", id, events[n-1].Seq, seen)
						}
						keepDump(events)
					}
				case 1:
					all := reg.ReplayEvents(0)
					for lo := 0; lo < len(all); {
						hi := lo
						for hi < len(all) && all[hi].RunID == all[lo].RunID {
							hi++
						}
						window := make([]trace.FlightEntry, 0, hi-lo)
						for _, ev := range all[lo:hi] {
							window = append(window, ev.Entry)
						}
						checkOwnWindow(t, "ReplayEvents", all[lo].RunID, window)
						lo = hi
					}
				case 2:
					mu.Lock()
					runs := slices.Clone(finished)
					mu.Unlock()
					for _, run := range runs {
						d := run.Flight().Snapshot()
						checkOwnWindow(t, "Flight().Snapshot", run.ID(), d)
						keepDump(d)
					}
				}
			}
		}(g)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				run := reg.Begin()
				traceOwnRun(run, size(w+i), "ok")
				run.Release()
				mu.Lock()
				finished = append(finished, run)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := reg.Evicted(); got != workers*perW+failures-keep {
		t.Fatalf("Evicted() = %d, want %d", got, workers*perW+failures-keep)
	}
	for i, run := range failed {
		if _, _, ok := reg.RunEvents(run.ID()); ok {
			t.Fatalf("failed run %d is still retained after %d later runs", run.ID(), workers*perW)
		}
		window := run.Flight().Snapshot()
		run.Release()
		want := min(size(i)+1, trace.DefaultFlightCapacity)
		if len(window) != want || window[len(window)-1].Event.Kind != trace.KindRunEnd || window[len(window)-1].Seq != uint64(size(i)+1) {
			t.Fatalf("evicted failed run %d kept %d events, want its whole window of %d ending in the run-end", run.ID(), len(window), want)
		}
		checkOwnWindow(t, "failed run's window", run.ID(), window)
	}
	for _, run := range finished {
		if _, _, retained := reg.RunEvents(run.ID()); !retained {
			if d := run.Flight().Snapshot(); len(d) != 0 {
				t.Fatalf("evicted, released run %d still shows %d events", run.ID(), len(d))
			}
		}
	}
	for _, k := range kept {
		if !slices.Equal(k[0], k[1]) {
			t.Fatalf("a returned dump of run %d changed after later evictions", k[1][0].Event.Node)
		}
	}
}

// TestRunRecyclingAllocs pins the always-on layer's steady state: once the
// completed ring is full and recycling, a run that records 64 events
// allocates its Run handle and flight recorder and nothing per event — no
// ring, no copy at its end.
func TestRunRecyclingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	reg := NewRunRegistry(DefaultCompletedRuns)
	ev := trace.Event{Kind: trace.KindAssign, Node: 1}
	end := trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: time.Millisecond}
	cycle := func(events int) func() {
		return func() {
			run := reg.Begin()
			for range events {
				run.Trace(ev)
			}
			run.Trace(end)
			run.Release()
		}
	}
	for range DefaultCompletedRuns + 1 {
		cycle(64)()
	}
	const perRun = 2 // the Run handle and its flight recorder
	empty, full := testing.AllocsPerRun(100, cycle(0)), testing.AllocsPerRun(100, cycle(64))
	if full > perRun || full != empty {
		t.Fatalf("a run allocates %.1f times with 64 events and %.1f with none, want the same %d", full, empty, perRun)
	}
}
