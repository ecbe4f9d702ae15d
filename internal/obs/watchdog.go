package obs

import (
	"bytes"
	"runtime/pprof"
	"sync"
	"time"

	"diva/internal/trace"
)

// Watchdog defaults. The threshold must comfortably exceed the engine's
// heartbeat cadence (a KindProgress every few thousand search steps, i.e.
// milliseconds apart on any live search), so staleness beyond it means the
// search is inside one monstrous candidate enumeration or genuinely wedged.
// A registry retains the newest DefaultIncidentCap incidents, so a flapping
// run cannot grow process memory without limit.
const (
	DefaultStallThreshold = 30 * time.Second
	DefaultWatchInterval  = time.Second
	DefaultIncidentCap    = 16
)

// Incident is one captured stall: the run's identity and liveness fields at
// detection time, its flight-recorder tail, and a full goroutine dump — what
// a post-mortem needs when the process is later killed.
type Incident struct {
	// RunID is the stalled run's registry ID.
	RunID uint64 `json:"run_id"`
	// At is the detection time.
	At time.Time `json:"at"`
	// Age is how stale the run's last trace event was at detection.
	Age time.Duration `json:"heartbeat_age_ns"`
	// Phase, Steps and Depth mirror the run's state at detection.
	Phase string `json:"phase,omitempty"`
	Steps int    `json:"steps"`
	Depth int    `json:"depth"`
	// Events is the run's flight-recorder snapshot — the trail leading into
	// the stall.
	Events []trace.FlightEntry `json:"events"`
	// Goroutines is the process's goroutine profile (debug=1 text form).
	Goroutines string `json:"goroutines"`
}

// addIncident stores inc in the registry's incident ring, evicting the
// oldest beyond DefaultIncidentCap, and counts the stall.
func (r *RunRegistry) addIncident(inc Incident) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stalls++
	r.incidents = append(r.incidents, inc)
	if drop := len(r.incidents) - DefaultIncidentCap; drop > 0 {
		r.incidents = append(r.incidents[:0], r.incidents[drop:]...)
	}
}

// Incidents returns the retained stall incidents, newest first.
func (r *RunRegistry) Incidents() []Incident {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Incident, len(r.incidents))
	for i := range r.incidents {
		out[len(r.incidents)-1-i] = r.incidents[i]
	}
	return out
}

// Stalls returns how many stall incidents have ever been recorded (evicted
// included). The process-wide registry exposes it as
// diva_stalled_runs_total.
func (r *RunRegistry) Stalls() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stalls
}

// Watchdog periodically sweeps a registry's live runs and flags any whose
// last trace event is older than the threshold: the run's Stalled bit is
// set (visible in /debug/diva/runs) and an Incident with a goroutine dump
// and the run's flight-recorder tail is stored in the registry. A fresh
// event clears the run's Stalled bit, re-arming the watchdog for that run.
type Watchdog struct {
	runs      *RunRegistry
	threshold time.Duration
	interval  time.Duration

	stop     chan struct{}
	stopOnce sync.Once
	mu       sync.Mutex
	done     chan struct{} // closed when the sweep loop exits; nil until Start
}

// NewWatchdog returns a watchdog over runs. threshold ≤ 0 selects
// DefaultStallThreshold; interval ≤ 0 selects DefaultWatchInterval. Call
// Start to begin sweeping, Stop to end.
func NewWatchdog(runs *RunRegistry, threshold, interval time.Duration) *Watchdog {
	if threshold <= 0 {
		threshold = DefaultStallThreshold
	}
	if interval <= 0 {
		interval = DefaultWatchInterval
	}
	return &Watchdog{runs: runs, threshold: threshold, interval: interval, stop: make(chan struct{})}
}

// Threshold returns the staleness bound beyond which a run is stalled.
func (w *Watchdog) Threshold() time.Duration { return w.threshold }

// Start launches the sweep loop in a background goroutine. Later calls do
// nothing.
func (w *Watchdog) Start() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done != nil {
		return
	}
	done := make(chan struct{})
	w.done = done
	go func() {
		defer close(done)
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				w.Sweep(now)
			case <-w.stop:
				return
			}
		}
	}()
}

// Stop ends the sweep loop and waits for it to exit; on a watchdog that was
// never started it returns at once. Idempotent.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.mu.Lock()
	done := w.done
	w.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Sweep examines every live run once and returns how many it newly flagged.
// Exported so tests (and callers without a ticker) can drive detection
// deterministically.
func (w *Watchdog) Sweep(now time.Time) int {
	flagged := 0
	for _, run := range w.runs.liveRuns() {
		age := run.HeartbeatAge(now)
		if age < w.threshold {
			continue
		}
		// Latch the stall bit; a concurrent fresh event wins the race by
		// clearing it right back, which is the correct outcome — the run
		// just proved it is alive.
		if run.stalled.Swap(true) {
			continue // already flagged for this silence
		}
		info := run.Info()
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		w.runs.addIncident(Incident{
			RunID:      run.ID(),
			At:         now,
			Age:        age,
			Phase:      info.Phase,
			Steps:      info.Steps,
			Depth:      info.Depth,
			Events:     run.Flight().Snapshot(),
			Goroutines: buf.String(),
		})
		flagged++
	}
	return flagged
}
