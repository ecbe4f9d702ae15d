// Engine-level tests of the live-telemetry layer: flight recorder + SSE
// broadcaster wiring under real runs, the stall watchdog against a genuinely
// wedged search, and the canonical run log. External test package: obs cannot import the
// engine (core imports obs).
package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diva"
	"diva/internal/core"
	"diva/internal/history"
	"diva/internal/obs"
	"diva/internal/relation"
)

// blockingCriterion wedges the coloring search: the first Holds call
// signals entered and then blocks until released — the "sleeping hook" the
// watchdog acceptance criterion stalls a run with.
type blockingCriterion struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (c *blockingCriterion) Name() string   { return "blocking" }
func (c *blockingCriterion) Monotone() bool { return true }
func (c *blockingCriterion) Holds(_ *relation.Relation, _ []int) bool {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return true
}

// TestStalledRunYieldsIncident is the tentpole acceptance test: a run wedged
// inside the color phase (no trace events flowing) is flagged by the
// watchdog within the threshold, and /debug/diva/incidents serves a
// goroutine dump plus a non-empty flight-recorder snapshot for it.
func TestStalledRunYieldsIncident(t *testing.T) {
	crit := &blockingCriterion{entered: make(chan struct{}), release: make(chan struct{})}
	wd := obs.NewWatchdog(obs.Runs, 50*time.Millisecond, time.Hour)

	rel := loadPatients(t)
	done := make(chan error, 1)
	go func() {
		_, err := core.Anonymize(context.Background(), rel, paperSigma(),
			core.Options{K: 2, Rng: rand.New(rand.NewPCG(1, 1)), Criterion: crit})
		done <- err
	}()
	<-crit.entered

	// The search is now provably wedged inside Holds. Wait out the
	// threshold, then sweep.
	deadline := time.Now().Add(10 * time.Second)
	for wd.Sweep(time.Now()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the wedged run")
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv := httptest.NewServer(obs.NewMux(obs.Metrics, obs.Runs))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/diva/incidents")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total     int64          `json:"total"`
		Incidents []obs.Incident `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(doc.Incidents) == 0 {
		t.Fatal("no incident served at /debug/diva/incidents")
	}
	inc := doc.Incidents[0]
	if len(inc.Events) == 0 {
		t.Fatal("incident flight-recorder snapshot is empty")
	}
	if !strings.Contains(inc.Goroutines, "Holds") {
		t.Fatalf("goroutine dump does not show the wedged Holds frame:\n%.400s", inc.Goroutines)
	}
	if inc.Phase != "color" {
		t.Fatalf("incident phase = %q, want color", inc.Phase)
	}

	// Release the hook: the run must complete normally and clear its stall
	// bit on the way out (End records the terminal event).
	close(crit.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNeverReadingSSESubscriberDropsNotBlocks is the backpressure
// acceptance: a subscriber that never reads loses events — counted — while
// the engine runs to completion unimpeded. Run under -race via `make race`.
func TestNeverReadingSSESubscriberDropsNotBlocks(t *testing.T) {
	sub := obs.Runs.Events().Subscribe(0, 1)
	defer obs.Runs.Events().Unsubscribe(sub)
	dropped := obs.Runs.Events().Dropped()

	res, err := diva.AnonymizeContext(context.Background(), loadPatients(t), paperSigma(),
		diva.Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Steps == 0 {
		t.Fatal("engine did no search work")
	}
	if obs.Runs.Events().Dropped() == dropped {
		t.Fatalf("subscriber with buffer 1 dropped nothing across %d search steps", res.Metrics.Steps)
	}
	var b bytes.Buffer
	obs.Metrics.WritePrometheus(&b)
	expo := b.String()
	for _, want := range []string{
		"diva_events_dropped_total",
		"diva_run_heartbeat_age_seconds",
		"diva_stalled_runs_total",
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("/metrics exposition missing %q", want)
		}
	}
	if strings.Contains(expo, "diva_events_dropped_total 0\n") {
		t.Fatal("diva_events_dropped_total still 0 after drops")
	}
}

// TestCanonicalRunLog asserts the wide-event contract: one slog record per
// run carrying the cross-run comparison key that matches the history
// ledger's record exactly, and — on infeasible outcomes — a ledgered
// flight-recorder snapshot ending in the run-end event.
func TestCanonicalRunLog(t *testing.T) {
	var buf bytes.Buffer
	logger, err := obs.NewLogger(&buf, "json", slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetCanonicalLogger(logger)
	defer obs.SetCanonicalLogger(nil)

	dir := t.TempDir()
	rel := loadPatients(t)
	if _, err := diva.AnonymizeContext(context.Background(), rel, paperSigma(),
		diva.Options{K: 2, Seed: 1, HistoryDir: dir}); err != nil {
		t.Fatal(err)
	}
	// An infeasible run: upper bounds far beyond the Asian population.
	badSigma := diva.Constraints{diva.NewConstraint("ETH", "Asian", 9, 12)}
	if _, err := diva.AnonymizeContext(context.Background(), rel, badSigma,
		diva.Options{K: 2, Seed: 1, HistoryDir: dir}); !errors.Is(err, diva.ErrNoDiverseClustering) {
		t.Fatalf("bad sigma error = %v, want ErrNoDiverseClustering", err)
	}

	type line struct {
		Msg     string `json:"msg"`
		Run     uint64 `json:"run"`
		Outcome string `json:"outcome"`
		Key     string `json:"key"`
		Total   int64  `json:"total"`
	}
	var lines []line
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("canonical log line not JSON: %q", raw)
		}
		if l.Msg == "diva run" {
			lines = append(lines, l)
		}
	}
	if len(lines) != 2 {
		t.Fatalf("%d canonical lines, want 2 (one per run)", len(lines))
	}
	if lines[0].Outcome != "ok" || lines[1].Outcome != "infeasible" {
		t.Fatalf("outcomes = %q, %q; want ok, infeasible", lines[0].Outcome, lines[1].Outcome)
	}

	loaded, err := history.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 2 {
		t.Fatalf("%d ledger records, want 2", len(loaded.Records))
	}
	for i, rec := range loaded.Records {
		if lines[i].Key != rec.Key() {
			t.Fatalf("run %d: canonical key %q != ledger key %q", i, lines[i].Key, rec.Key())
		}
		if lines[i].Run != rec.RunID {
			t.Fatalf("run %d: canonical run ID %d != ledger %d", i, lines[i].Run, rec.RunID)
		}
	}
	ok, bad := loaded.Records[0], loaded.Records[1]
	if len(ok.Events) != 0 {
		t.Fatalf("ok record carries %d flight events, want none", len(ok.Events))
	}
	if len(bad.Events) == 0 {
		t.Fatal("infeasible record has no flight-recorder snapshot")
	}
	last := bad.Events[len(bad.Events)-1].Event
	if last.Kind.String() != "run-end" || last.Label != "infeasible" {
		t.Fatalf("infeasible snapshot ends with %s/%q, want run-end/infeasible", last.Kind, last.Label)
	}
}
