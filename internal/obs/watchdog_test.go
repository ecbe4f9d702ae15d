package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func TestWatchdogFlagsStalledRun(t *testing.T) {
	reg := NewRunRegistry(4)
	wd := NewWatchdog(reg, 50*time.Millisecond, time.Hour)

	run := reg.Begin()
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 100, Depth: 4, Worker: -1})

	// Fresh run: not stale yet.
	if n := wd.Sweep(time.Now()); n != 0 {
		t.Fatalf("sweep flagged %d fresh runs", n)
	}
	// Pretend the threshold elapsed without events.
	stale := time.Now().Add(wd.Threshold() + time.Millisecond)
	if n := wd.Sweep(stale); n != 1 {
		t.Fatalf("sweep flagged %d stale runs, want 1", n)
	}
	if !run.Info().Stalled {
		t.Fatal("run not marked stalled")
	}
	// Same silence is not a second incident.
	if n := wd.Sweep(stale.Add(time.Second)); n != 0 {
		t.Fatalf("re-sweep flagged %d, want 0 (already flagged)", n)
	}
	if reg.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", reg.Stalls())
	}

	incs := reg.Incidents()
	inc := incs[0]
	if inc.RunID != run.ID() || inc.Phase != string(trace.PhaseColor) || inc.Steps != 100 {
		t.Fatalf("incident = %+v", inc)
	}
	if len(inc.Events) == 0 {
		t.Fatal("incident has no flight-recorder snapshot")
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Fatalf("incident goroutine dump looks empty: %.80q", inc.Goroutines)
	}
	if inc.Age < wd.Threshold() {
		t.Fatalf("incident age %v below threshold %v", inc.Age, wd.Threshold())
	}

	// A fresh event clears the stall bit and re-arms detection.
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 101, Worker: -1})
	if run.Info().Stalled {
		t.Fatal("stall bit not cleared by fresh event")
	}
	if n := wd.Sweep(time.Now().Add(wd.Threshold() + time.Millisecond)); n != 1 {
		t.Fatalf("re-armed sweep flagged %d, want 1", n)
	}
	if reg.Stalls() != 2 || len(reg.Incidents()) != 2 {
		t.Fatalf("stalls = %d, retained %d; want 2, 2", reg.Stalls(), len(reg.Incidents()))
	}
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
}

func TestWatchdogTickerLoop(t *testing.T) {
	reg := NewRunRegistry(4)
	wd := NewWatchdog(reg, 30*time.Millisecond, 5*time.Millisecond)
	run := reg.Begin()
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseBind})
	wd.Start()
	wd.Start() // a second Start is a no-op
	defer run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	deadline := time.Now().Add(5 * time.Second)
	for reg.Stalls() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	wd.Stop()
	if reg.Stalls() == 0 {
		t.Fatal("ticker loop never flagged the silent run")
	}
	// Stop is idempotent.
	wd.Stop()
}

// TestWatchdogStopWithoutStart: Stop on a watchdog that was never started
// returns at once, and stays idempotent.
func TestWatchdogStopWithoutStart(t *testing.T) {
	wd := NewWatchdog(NewRunRegistry(4), 0, 0)
	stopped := make(chan struct{})
	go func() {
		wd.Stop()
		wd.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop on an unstarted watchdog did not return within 1s")
	}
}

// TestIncidentStoreBounds: the registry keeps the newest DefaultIncidentCap
// incidents, newest first, and counts every stall past evictions.
func TestIncidentStoreBounds(t *testing.T) {
	reg := NewRunRegistry(4)
	n := uint64(DefaultIncidentCap + 2)
	for i := uint64(1); i <= n; i++ {
		reg.addIncident(Incident{RunID: i})
	}
	if reg.Stalls() != int64(n) {
		t.Fatalf("stalls = %d, want %d", reg.Stalls(), n)
	}
	snap := reg.Incidents()
	if len(snap) != DefaultIncidentCap {
		t.Fatalf("retained %d incidents, want cap %d", len(snap), DefaultIncidentCap)
	}
	if snap[0].RunID != n || snap[len(snap)-1].RunID != 3 {
		t.Fatalf("snapshot order = %d … %d; want newest first %d … 3", snap[0].RunID, snap[len(snap)-1].RunID, n)
	}
}

func TestIncidentsEndpoint(t *testing.T) {
	runs := NewRunRegistry(4)
	runs.addIncident(Incident{RunID: 9, Age: time.Second, Phase: "color",
		Events:     []trace.FlightEntry{{Seq: 1, Event: trace.Event{Kind: trace.KindAssign}}},
		Goroutines: "goroutine 1 [running]:"})
	srv := httptest.NewServer(NewMux(NewRegistry(), runs))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/diva/incidents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Total     int64      `json:"total"`
		Incidents []Incident `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || len(doc.Incidents) != 1 {
		t.Fatalf("served %d incidents (total %d), want 1", len(doc.Incidents), doc.Total)
	}
	inc := doc.Incidents[0]
	if inc.RunID != 9 || len(inc.Events) != 1 || inc.Events[0].Event.Kind != trace.KindAssign {
		t.Fatalf("incident round-trip = %+v", inc)
	}
}
