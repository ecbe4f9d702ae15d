package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/profile"
	"diva/internal/trace"
)

func TestWatchdogFlagsStalledRun(t *testing.T) {
	reg := NewRunRegistry(4)
	store := NewIncidentStore(4)
	wd := NewWatchdog(reg, store, 50*time.Millisecond, time.Hour)

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
	if wd.Flagged() != 1 || store.Total() != 1 {
		t.Fatalf("flagged %d, incidents %d; want 1, 1", wd.Flagged(), store.Total())
	}

	incs := store.Snapshot()
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
	if store.Total() != 2 {
		t.Fatalf("incidents = %d, want 2", store.Total())
	}
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
}

func TestWatchdogTickerLoop(t *testing.T) {
	reg := NewRunRegistry(4)
	store := NewIncidentStore(4)
	wd := NewWatchdog(reg, store, 30*time.Millisecond, 5*time.Millisecond)
	run := reg.Begin()
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseBind})
	wd.Start()
	defer run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	deadline := time.Now().Add(5 * time.Second)
	for wd.Flagged() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	wd.Stop()
	if wd.Flagged() == 0 {
		t.Fatal("ticker loop never flagged the silent run")
	}
	// Stop is idempotent.
	wd.Stop()
}

func TestIncidentStoreBounds(t *testing.T) {
	s := NewIncidentStore(2)
	for i := uint64(1); i <= 3; i++ {
		s.Add(Incident{RunID: i})
	}
	if s.Total() != 3 {
		t.Fatalf("total = %d, want 3", s.Total())
	}
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("retained %d incidents, want cap 2", len(snap))
	}
	if snap[0].RunID != 3 || snap[1].RunID != 2 {
		t.Fatalf("snapshot order = %d, %d; want newest first 3, 2", snap[0].RunID, snap[1].RunID)
	}
	if NewIncidentStore(0).Cap() != DefaultIncidentCap {
		t.Fatal("zero cap did not select default")
	}
}

func TestIncidentsEndpoint(t *testing.T) {
	store := NewIncidentStore(4)
	store.Add(Incident{RunID: 9, Age: time.Second, Phase: "color",
		Events:     []trace.FlightEntry{{Seq: 1, Event: trace.Event{Kind: trace.KindAssign}}},
		Goroutines: "goroutine 1 [running]:"})
	srv := httptest.NewServer(NewMux(NewRegistry(), NewRunRegistry(4), profile.NewRing(4), store))
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
