package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"diva/internal/trace"
)

func TestRunLifecycle(t *testing.T) {
	reg := NewRunRegistry(4)
	run := reg.Begin()
	if run.ID() == 0 {
		t.Fatal("run ID must be nonzero")
	}
	if reg.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d, want 1", reg.LiveCount())
	}
	run.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 100, Depth: 7, Worker: 2, Backtracks: 40})
	// A slower worker's stale heartbeat must not regress the step count;
	// backtracks are the last heartbeat's.
	run.Trace(trace.Event{Kind: trace.KindProgress, Steps: 50, Depth: 3, Worker: 0, Backtracks: 30})

	info := run.Info()
	if info.State != "running" || info.Phase != string(trace.PhaseColor) {
		t.Fatalf("live info = %+v", info)
	}
	if info.Steps != 100 || info.Heartbeats != 2 {
		t.Fatalf("steps/heartbeats = %d/%d, want 100/2", info.Steps, info.Heartbeats)
	}
	if info.Backtracks != 30 || info.Depth != 3 || info.Worker != 0 {
		t.Fatalf("backtracks/depth/worker = %d/%d/%d, want the last heartbeat's 30/3/0",
			info.Backtracks, info.Depth, info.Worker)
	}

	live, completed := reg.Snapshot()
	if len(live) != 1 || len(completed) != 0 {
		t.Fatalf("snapshot: %d live, %d completed", len(live), len(completed))
	}

	// The run-end metrics are authoritative: a portfolio loser may have
	// heartbeated more steps than the winner the run reports.
	m := &trace.RunMetrics{Total: 5 * time.Millisecond, Steps: 50, Backtracks: 45}
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: m.Total, Metrics: m})
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "error", Err: "a second run-end must be ignored"})
	if reg.LiveCount() != 0 {
		t.Fatalf("LiveCount after run-end = %d", reg.LiveCount())
	}
	live, completed = reg.Snapshot()
	if len(live) != 0 || len(completed) != 1 {
		t.Fatalf("snapshot after run-end: %d live, %d completed", len(live), len(completed))
	}
	if events, seen, _ := reg.RunEvents(run.ID()); seen != 4 || events[len(events)-1].Event.Metrics != m {
		t.Fatalf("flight recorder saw %d events ending %+v; want 4 ending with the first run-end", seen, events[len(events)-1].Event)
	}
	done := completed[0]
	if done.State != "ok" || done.Err != "" {
		t.Fatalf("completed info = %+v", done)
	}
	if done.Elapsed != m.Total {
		t.Fatalf("Elapsed = %v, want metrics total %v", done.Elapsed, m.Total)
	}
	if done.Steps != 50 || done.Backtracks != 45 {
		t.Fatalf("steps/backtracks = %d/%d, want run-end metrics values 50/45",
			done.Steps, done.Backtracks)
	}
	if done.Metrics != m {
		t.Fatal("completed info must carry the run's metrics")
	}
}

// TestRunConcurrentTraceAndInfo: portfolio workers heartbeat one run while
// /debug/diva/runs snapshots it, and the run ends under a live reader; the
// run's one RunInfo counts every heartbeat and keeps the step maximum.
func TestRunConcurrentTraceAndInfo(t *testing.T) {
	reg := NewRunRegistry(4)
	run := reg.Begin()
	const workers, beats = 4, 200
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
				run.Info()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 1; i <= beats; i++ {
				run.Trace(trace.Event{Kind: trace.KindProgress, Steps: i * workers, Worker: w, Backtracks: i})
			}
		}(w)
	}
	writers.Wait()
	if info := run.Info(); info.Heartbeats != workers*beats || info.Steps != beats*workers || info.Backtracks != beats {
		t.Fatalf("after %d heartbeats: %+v", workers*beats, info)
	}
	run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: time.Millisecond})
	close(stop)
	readers.Wait()
	if info := run.Info(); info.State != "ok" || info.Elapsed != time.Millisecond || info.Stalled {
		t.Fatalf("ended run's Info = %+v, want the completed state", info)
	}
}

func TestCompletedRing(t *testing.T) {
	reg := NewRunRegistry(2)
	for i := 0; i < 3; i++ {
		reg.Begin().Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	}
	_, completed := reg.Snapshot()
	if len(completed) != 2 {
		t.Fatalf("ring kept %d runs, want 2", len(completed))
	}
	// Most recent first; the oldest run (ID 1) was evicted.
	if completed[0].ID != 3 || completed[1].ID != 2 {
		t.Fatalf("ring order: %d, %d; want 3, 2", completed[0].ID, completed[1].ID)
	}
}

func TestEvictionObservable(t *testing.T) {
	reg := NewRunRegistry(2)
	if reg.Keep() != 2 {
		t.Fatalf("Keep() = %d, want 2", reg.Keep())
	}
	if reg.Evicted() != 0 {
		t.Fatalf("fresh registry Evicted() = %d", reg.Evicted())
	}
	before := Runs.Evicted()
	for i := 0; i < 5; i++ {
		reg.Begin().Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	}
	if got := reg.Evicted(); got != 3 {
		t.Fatalf("Evicted() = %d, want 3 (5 completed, 2 kept)", got)
	}
	// diva_runs_evicted_total reads the process-wide registry's count; a
	// dedicated registry does not touch it.
	var b strings.Builder
	Metrics.WritePrometheus(&b)
	if want := fmt.Sprintf("\ndiva_runs_evicted_total %d\n", before); Runs.Evicted() != before || !strings.Contains(b.String(), want) {
		t.Fatalf("exposition lacks %q (Runs.Evicted() = %d)", want, Runs.Evicted())
	}
}

// TestOutcomeClassification: the run-end event's outcome — the engine's
// single core.RunOutcome classification — and error text are the completed
// run's State and Err, and the event itself is the run's last flight entry,
// verbatim, for every outcome.
func TestOutcomeClassification(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		outcome string
		err     error
	}{
		{"ok", nil},
		{"infeasible", boom},
		{"canceled", boom},
		{"error", boom},
	}
	for _, c := range cases {
		reg := NewRunRegistry(4)
		run := reg.Begin()
		ev := trace.Event{Kind: trace.KindRunEnd, Label: c.outcome, Metrics: &trace.RunMetrics{}}
		if c.err != nil {
			ev.Err = c.err.Error()
		}
		run.Trace(ev)
		_, completed := reg.Snapshot()
		if got := completed[0].State; got != c.outcome {
			t.Fatalf("%s run recorded with State %q", c.outcome, got)
		}
		if c.err != nil && completed[0].Err != "boom" {
			t.Fatalf("%s run recorded with Err %q", c.outcome, completed[0].Err)
		}
		events, _, _ := reg.RunEvents(run.ID())
		if last := events[len(events)-1].Event; last.Kind != trace.KindRunEnd || last.Label != c.outcome {
			t.Fatalf("%s run ends with %s/%q", c.outcome, last.Kind, last.Label)
		}
	}
}

func TestSnapshotLiveOrder(t *testing.T) {
	reg := NewRunRegistry(4)
	var runs []*Run
	for i := 0; i < 5; i++ {
		runs = append(runs, reg.Begin())
	}
	live, _ := reg.Snapshot()
	for i := 1; i < len(live); i++ {
		if live[i].ID <= live[i-1].ID {
			t.Fatalf("live runs not in ascending ID order: %+v", live)
		}
	}
	for _, r := range runs {
		r.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	}
}

// TestProfilesEvictedWithRuns: a profiled run's profile lives on its
// completed record, so the registry lists profiled runs oldest first and
// drops each profile together with its run when the ring evicts it.
func TestProfilesEvictedWithRuns(t *testing.T) {
	reg := NewRunRegistry(2)
	EnableProfiling(true)
	defer EnableProfiling(false)
	for i := 0; i < 3; i++ {
		run := reg.Begin()
		run.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Metrics: &trace.RunMetrics{RunID: run.ID()}})
	}
	if reg.Profile(1) != nil {
		t.Fatal("evicted run's profile still served")
	}
	for _, id := range []uint64{2, 3} {
		if p := reg.Profile(id); p == nil || p.Metrics.RunID != id || p.Outcome != "ok" {
			t.Fatalf("profile of retained run %d = %+v", id, p)
		}
	}
	if ids := reg.ProfileIDs(); len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("ProfileIDs = %v, want [2 3]", ids)
	}
	live := reg.Begin()
	defer live.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})
	if reg.Profile(live.ID()) != nil {
		t.Fatal("a live run's profile is served before the run completes")
	}
}
