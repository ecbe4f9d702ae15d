package obs

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diva/internal/profile"
	"diva/internal/trace"
)

// DefaultCompletedRuns is how many finished runs the default registry
// retains for /debug/diva/runs.
const DefaultCompletedRuns = 32

// RunInfo is the externally visible state of one run, as served by
// /debug/diva/runs. It is the one fold of a run's events: Run.Trace updates
// it in place and the run-end event completes it.
type RunInfo struct {
	// ID is the registry-assigned run identifier (monotone per process).
	ID uint64 `json:"id"`
	// Start is the run's registration time.
	Start time.Time `json:"start"`
	// Elapsed is time since Start for live runs, and the final wall time for
	// completed ones.
	Elapsed time.Duration `json:"elapsed_ns"`
	// State is StateRunning or the completed run's core.RunOutcome: "ok",
	// "infeasible", "canceled" or "error".
	State string `json:"state"`
	// Phase is the phase the run is currently in (live) or last entered.
	Phase string `json:"phase,omitempty"`
	// Steps, Depth and Worker mirror the run's last KindProgress heartbeat:
	// the search's step count (the max over portfolio workers), its current
	// coloring depth, and which worker sent the last heartbeat (−1
	// sequential). Backtracks is the last heartbeat's count. A completed
	// run's Steps and Backtracks are its run-end Metrics' Steps and
	// Backtracks.
	Steps      int `json:"steps"`
	Depth      int `json:"depth"`
	Worker     int `json:"worker"`
	Backtracks int `json:"backtracks"`
	// Heartbeats counts KindProgress events received, across all workers.
	Heartbeats int64 `json:"heartbeats"`
	// Stalled is set while the watchdog considers the run stalled (heartbeat
	// older than the threshold); any fresh trace event clears it.
	Stalled bool `json:"stalled,omitempty"`
	// Err is the run's error string, set on completed error runs.
	Err string `json:"error,omitempty"`
	// Metrics is the completed run's aggregated RunMetrics (nil while
	// running).
	Metrics *trace.RunMetrics `json:"metrics,omitempty"`

	// run is the completed run's handle, whose sealed flight recorder rides
	// the registry's done ring, and profile its finished search profile (nil
	// when profiling was off). Unexported so /debug/diva/runs stays compact;
	// /debug/diva/runs/{id}/events and /debug/diva/profile/{id} serve them.
	run     *Run
	profile *profile.Profile
}

// StateRunning is RunInfo.State until the run-end event names the outcome.
const StateRunning = "running"

// RunRegistry is the one store of per-run state: every in-flight engine
// run, a fixed ring of the last K completed ones (each carrying its sealed
// flight recorder and, with profiling on, its search profile), and a ring
// of the newest stall incidents. It owns its runs' flight rings: a run's
// ring is recycled to a later run once the run has left the completed ring
// and its owner has called Run.Release, so in steady state a run allocates
// no ring; readers get copies. It is goroutine-safe: runs register,
// heartbeat and finish concurrently. Runs is the process-wide default used
// by the engine.
type RunRegistry struct {
	bus       *Broadcaster
	mu        sync.Mutex
	nextID    uint64
	live      map[uint64]*Run
	done      []RunInfo // ring of keep completed-run slots; the oldest is done[head]
	head      int
	ndone     int                   // occupied slots of done
	free      [][]trace.FlightEntry // recycled flight rings, at most freeRings
	evicted   int64                 // completed runs dropped from the ring to honor keep
	incidents []Incident            // newest DefaultIncidentCap stall incidents, oldest first
	stalls    int64                 // incidents ever recorded, evicted included
}

// freeRings bounds the registry's free list of recycled flight rings. A
// sequential caller needs one (each finish frees the ring the next Begin
// takes); the bound caps what a burst of evictions keeps alive at about
// 0.5 MB.
const freeRings = 8

// Runs is the process-wide run registry; core.Anonymize registers every run
// here and the ops server exposes it at /debug/diva/runs.
var Runs = NewRunRegistry(DefaultCompletedRuns)

// NewRunRegistry returns a registry retaining keep completed runs (keep ≤ 0
// selects DefaultCompletedRuns).
func NewRunRegistry(keep int) *RunRegistry {
	if keep <= 0 {
		keep = DefaultCompletedRuns
	}
	return &RunRegistry{
		bus:  NewBroadcaster(),
		live: make(map[uint64]*Run),
		done: make([]RunInfo, keep),
		free: make([][]trace.FlightEntry, 0, freeRings),
	}
}

// Events returns the registry's event broadcaster: every trace event any
// registered run receives is published there, keyed by run ID.
func (r *RunRegistry) Events() *Broadcaster { return r.bus }

// Begin registers a new live run and returns its handle. The handle is a
// trace.Tracer: tee it into the run's event stream so phase changes and
// heartbeats reach the registry; the run's KindRunEnd event completes it.
// With profiling enabled the run also reconstructs its search profile.
func (r *RunRegistry) Begin() *Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	now := time.Now()
	var ring []trace.FlightEntry
	if n := len(r.free); n > 0 {
		ring, r.free[n-1] = r.free[n-1], nil
		r.free = r.free[:n-1]
	}
	run := &Run{
		reg:    r,
		flight: trace.NewFlightRecorderFrom(ring, trace.DefaultFlightCapacity, now),
		claims: 2,
		info:   RunInfo{ID: r.nextID, Start: now, State: StateRunning, Worker: -1},
	}
	if ProfilingEnabled() {
		run.prof = profile.New()
	}
	run.lastEvent.Store(now.UnixNano())
	r.live[run.info.ID] = run
	return run
}

// LiveCount returns the number of in-flight runs.
func (r *RunRegistry) LiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Snapshot returns the live runs (ascending ID) and the retained completed
// runs (most recent first).
func (r *RunRegistry) Snapshot() (live, completed []RunInfo) {
	r.mu.Lock()
	liveRuns := make([]*Run, 0, len(r.live))
	for _, run := range r.live {
		liveRuns = append(liveRuns, run)
	}
	completed = make([]RunInfo, r.ndone)
	for i := range completed {
		completed[r.ndone-1-i] = *r.doneAt(i)
	}
	r.mu.Unlock()
	live = make([]RunInfo, len(liveRuns))
	for i, run := range liveRuns {
		live[i] = run.Info()
	}
	// Map iteration scrambled the order; restore ascending ID.
	slices.SortFunc(live, func(a, b RunInfo) int { return cmp.Compare(a.ID, b.ID) })
	return live, completed
}

// Keep returns the completed-ring capacity the registry was constructed
// with.
func (r *RunRegistry) Keep() int { return len(r.done) }

// Evicted returns how many completed runs have been dropped from the ring to
// honor Keep. The process-wide registry exposes it as
// diva_runs_evicted_total.
func (r *RunRegistry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// doneAt returns the i-th retained completed run, oldest first. The caller
// holds r.mu.
func (r *RunRegistry) doneAt(i int) *RunInfo { return &r.done[(r.head+i)%len(r.done)] }

// finish moves a completed run from the live set into the done ring. A full
// ring overwrites its oldest slot, which releases that run's claim on its
// flight ring.
func (r *RunRegistry) finish(info RunInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, info.ID)
	slot := r.doneAt(r.ndone)
	if r.ndone == len(r.done) {
		r.release(slot.run)
		r.head = (r.head + 1) % len(r.done)
		r.evicted++
	} else {
		r.ndone++
	}
	*slot = info
}

// release drops one of the two claims on run's flight ring, the done
// ring's (on eviction) or the owner's (Run.Release), and recycles the ring
// once both are gone: Release clears it under the recorder's own lock, so a
// late reader of the evicted run sees an empty window, never a later run's
// events. The caller holds r.mu.
func (r *RunRegistry) release(run *Run) {
	if run.claims--; run.claims > 0 {
		return
	}
	if ring := run.flight.Release(); cap(ring) > 0 && len(r.free) < freeRings {
		r.free = append(r.free, ring)
	}
}

// Run is the registry's handle for one in-flight engine run. It implements
// trace.Tracer: phase-start events update the current phase, KindProgress
// heartbeats update the search liveness fields, and KindRunEnd completes
// the run. All methods are goroutine-safe (portfolio workers heartbeat
// concurrently).
type Run struct {
	reg    *RunRegistry
	flight *trace.FlightRecorder
	prof   *profile.Profiler // nil unless profiling was on at Begin

	// claims counts who still holds the flight ring, guarded by reg.mu: the
	// owner until Release, and the registry until the run leaves the done
	// ring. released makes Release idempotent.
	claims   int
	released bool

	// lastEvent is the wall-clock UnixNano of the run's most recent trace
	// event — the watchdog's staleness signal. stalled latches once the
	// watchdog flags the run and clears on the next event, so one stall
	// yields one incident.
	lastEvent atomic.Int64
	stalled   atomic.Bool

	// info is the run's visible state, guarded by mu. Its ID and Start are
	// set by Begin and never written again, so they are read without mu. The
	// run has ended once State is no longer StateRunning.
	mu   sync.Mutex
	info RunInfo
}

// ID returns the registry-assigned run identifier.
func (run *Run) ID() uint64 { return run.info.ID }

// Trace implements trace.Tracer. Every event up to the run-end — not just
// phase changes and heartbeats — lands in the run's flight recorder (and
// profiler, if any) and is published to the registry's broadcaster, so the
// run is observable even when the caller set no tracer of its own. The
// entry's offset also stamps the watchdog's heartbeat, so an event reads
// the clock once. Events after the run-end are dropped.
func (run *Run) Trace(ev trace.Event) {
	if run.prof != nil {
		run.prof.Trace(ev)
	}
	if ev.Kind == trace.KindRunEnd {
		run.end(ev)
		return
	}
	entry := run.flight.Record(ev)
	if entry.Seq == 0 {
		return // the run has ended: its recorder is sealed
	}
	run.lastEvent.Store(run.info.Start.UnixNano() + int64(entry.At))
	run.stalled.Store(false)
	switch ev.Kind {
	case trace.KindPhaseStart:
		run.mu.Lock()
		run.info.Phase = string(ev.Phase)
		run.mu.Unlock()
	case trace.KindProgress:
		mHeartbeats.Inc()
		run.mu.Lock()
		info := &run.info
		info.Heartbeats++
		info.Steps = max(info.Steps, ev.Steps)
		info.Depth, info.Worker = ev.Depth, ev.Worker
		info.Backtracks = ev.Backtracks
		run.mu.Unlock()
	}
	run.reg.bus.Publish(RunEvent{RunID: run.info.ID, Entry: entry})
}

// Flight returns the run's flight recorder. Once the run has ended the
// recorder is sealed; it keeps the run's window until the run has both left
// the completed ring and been released, and is empty afterwards.
func (run *Run) Flight() *trace.FlightRecorder { return run.flight }

// Release declares that the run's owner will read its flight recorder no
// more, so the registry may recycle the ring once the run has also left the
// completed ring. core.Anonymize releases its run after depositing the
// run's history record, which copies a failed run's window; an unreleased
// run keeps its window and its ring goes to the garbage collector.
// Release is idempotent.
func (run *Run) Release() {
	r := run.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	if !run.released {
		run.released = true
		r.release(run)
	}
}

// HeartbeatAge returns how long ago the run's last trace event arrived.
func (run *Run) HeartbeatAge(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, run.lastEvent.Load()))
}

// Info returns a copy of the run's visible state; while the run is live,
// its Elapsed and Stalled are filled in as of the call.
func (run *Run) Info() RunInfo {
	run.mu.Lock()
	info := run.info
	run.mu.Unlock()
	if info.State == StateRunning {
		info.Elapsed = time.Since(info.Start)
		info.Stalled = run.stalled.Load()
	}
	return info
}

// end handles the run's KindRunEnd event: it records the event and seals
// the flight recorder in place, completes the run's visible state from it
// (outcome as State, its metrics as the final counters), finalizes the
// profile, and moves the run from the live set into the completed ring —
// all before the run-end is published, so a subscriber that sees it finds
// the run's artifacts already served. Only the first run-end event takes effect.
func (run *Run) end(ev trace.Event) {
	run.mu.Lock()
	info := &run.info
	if info.State != StateRunning {
		run.mu.Unlock()
		return
	}
	entry := run.flight.Record(ev)
	info.State, info.Elapsed, info.Err, info.Metrics = ev.Label, ev.Elapsed, ev.Err, ev.Metrics
	if m := ev.Metrics; m != nil {
		info.Steps, info.Backtracks = m.Steps, m.Backtracks
	}
	run.flight.Seal()
	info.run = run
	if run.prof != nil {
		info.profile = run.prof.Profile()
	}
	done := *info
	run.mu.Unlock()
	run.reg.finish(done)
	run.reg.bus.Publish(RunEvent{RunID: done.ID, Entry: entry})
}

// RunEvents returns a copy of the flight-recorder window for run id — live
// or retained-completed — plus the total events the run has seen (evicted
// included). A completed run's window is copied under the registry lock,
// so eviction cannot recycle it mid-copy. ok is false when the registry
// doesn't know the run.
func (r *RunRegistry) RunEvents(id uint64) (events []trace.FlightEntry, seen uint64, ok bool) {
	r.mu.Lock()
	if run, live := r.live[id]; live {
		r.mu.Unlock()
		return run.flight.Snapshot(), run.flight.Seen(), true
	}
	defer r.mu.Unlock()
	if info := r.completed(id); info != nil {
		return info.run.flight.Snapshot(), info.run.flight.Seen(), true
	}
	return nil, 0, false
}

// completed returns retained completed run id's record, or nil. The caller
// holds r.mu.
func (r *RunRegistry) completed(id uint64) *RunInfo {
	for i := r.ndone - 1; i >= 0; i-- {
		if info := r.doneAt(i); info.ID == id {
			return info
		}
	}
	return nil
}

// Profile returns the finished search profile of retained completed run id,
// or nil when the run is unknown, too old, still live, or ran without
// profiling.
func (r *RunRegistry) Profile(id uint64) *profile.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	if info := r.completed(id); info != nil {
		return info.profile
	}
	return nil
}

// ProfileIDs returns the IDs of the retained completed runs that carry a
// profile, oldest first.
func (r *RunRegistry) ProfileIDs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := []uint64{}
	for i := range r.ndone {
		if info := r.doneAt(i); info.profile != nil {
			ids = append(ids, info.ID)
		}
	}
	return ids
}

// ReplayEvents returns the recorded history for runID (0 = every run the
// registry knows), ordered by run ID then sequence — what the SSE endpoint
// writes to a fresh subscriber before streaming live. The windows are
// copied outside the registry lock, so a completed run evicted meanwhile
// contributes its whole window or nothing.
func (r *RunRegistry) ReplayEvents(runID uint64) []RunEvent {
	r.mu.Lock()
	runs := make([]*Run, 0, r.ndone+len(r.live))
	for i := range r.ndone {
		if info := r.doneAt(i); runID == 0 || info.ID == runID {
			runs = append(runs, info.run)
		}
	}
	for id, run := range r.live {
		if runID == 0 || id == runID {
			runs = append(runs, run)
		}
	}
	r.mu.Unlock()
	slices.SortFunc(runs, func(a, b *Run) int { return cmp.Compare(a.ID(), b.ID()) })
	var out []RunEvent
	for _, run := range runs {
		for _, e := range run.flight.Snapshot() {
			out = append(out, RunEvent{RunID: run.ID(), Entry: e})
		}
	}
	return out
}

// liveRuns returns the current live-run handles (any order).
func (r *RunRegistry) liveRuns() []*Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	runs := make([]*Run, 0, len(r.live))
	for _, run := range r.live {
		runs = append(runs, run)
	}
	return runs
}

// MaxHeartbeatAge returns the staleness of the most-stale live run's last
// trace event, or 0 with no live runs — the diva_run_heartbeat_age_seconds
// gauge.
func (r *RunRegistry) MaxHeartbeatAge(now time.Time) time.Duration {
	var max time.Duration
	for _, run := range r.liveRuns() {
		if age := run.HeartbeatAge(now); age > max {
			max = age
		}
	}
	return max
}
