// Engine-level tests of the ops layer: these live in an external test
// package because obs cannot import the engine (core imports obs).
package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diva"
	"diva/internal/obs"
	"diva/internal/trace"
)

const patientsCSV = `GEN:qi,ETH:qi,AGE:qi:numeric,PRV:qi,CTY:qi,DIAG:sensitive
Female,Caucasian,80,AB,Calgary,Hypertension
Female,Caucasian,32,AB,Calgary,Tuberculosis
Male,Caucasian,59,AB,Calgary,Osteoarthritis
Male,Caucasian,46,MB,Winnipeg,Migraine
Male,African,32,MB,Winnipeg,Hypertension
Male,African,43,BC,Vancouver,Seizure
Male,Caucasian,35,BC,Vancouver,Hypertension
Female,Asian,58,BC,Vancouver,Seizure
Female,Asian,63,MB,Winnipeg,Influenza
Female,Asian,71,BC,Vancouver,Migraine
`

func loadPatients(t testing.TB) *diva.Relation {
	t.Helper()
	rel, err := diva.ReadAnnotatedCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func paperSigma() diva.Constraints {
	return diva.Constraints{
		diva.NewConstraint("ETH", "Asian", 2, 5),
		diva.NewConstraint("ETH", "African", 1, 3),
		diva.NewConstraint("CTY", "Vancouver", 2, 4),
	}
}

// traceFunc adapts a function to the Tracer interface.
type traceFunc func(diva.Event)

func (f traceFunc) Trace(ev diva.Event) { f(ev) }

// TestLiveRunVisibleWhileInFlight is the acceptance check for the run
// registry: while an engine run is in flight, /debug/diva/runs (and the
// registry snapshot behind it) shows the run with a nonzero heartbeat step
// count. The caller's tracer blocks the run after the color phase, so the
// final search heartbeat has definitely reached the registry and the run is
// definitely still live when we look.
func TestLiveRunVisibleWhileInFlight(t *testing.T) {
	rel := loadPatients(t)
	colorDone := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	tracer := traceFunc(func(ev diva.Event) {
		if ev.Kind == diva.KindPhaseEnd && ev.Phase == diva.PhaseColor {
			once.Do(func() { close(colorDone) })
			<-release
		}
	})
	type outcome struct {
		res *diva.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := diva.AnonymizeContext(context.Background(), rel, paperSigma(),
			diva.Options{K: 2, Seed: 1, Tracer: tracer})
		done <- outcome{res, err}
	}()
	<-colorDone

	live, _ := obs.Runs.Snapshot()
	var found *obs.RunInfo
	for i := range live {
		if live[i].Steps > 0 {
			found = &live[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no live run with Steps > 0 in snapshot: %+v", live)
	}
	if found.State != "running" || found.Heartbeats == 0 {
		t.Fatalf("live run = %+v", *found)
	}

	// The same run must be visible over HTTP.
	srv := httptest.NewServer(obs.NewMux(obs.Metrics, obs.Runs))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/diva/runs")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.RunsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	served := false
	for _, info := range doc.Live {
		if info.ID == found.ID && info.Steps > 0 {
			served = true
		}
	}
	if !served {
		t.Fatalf("in-flight run %d not served at /debug/diva/runs: %+v", found.ID, doc.Live)
	}

	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Metrics.RunID != found.ID {
		t.Fatalf("RunID = %d, want registry ID %d", out.res.Metrics.RunID, found.ID)
	}
	_, completed := obs.Runs.Snapshot()
	for _, info := range completed {
		if info.ID == found.ID {
			if info.State != "ok" {
				t.Fatalf("completed run state = %q", info.State)
			}
			return
		}
	}
	t.Fatalf("run %d missing from completed ring", found.ID)
}

// endLog is a goroutine-safe Tracer counting a run's events and noting
// where its run-end events fell and which metrics the last one carried.
type endLog struct {
	mu      sync.Mutex
	n       int
	ends    []int
	metrics *diva.RunMetrics
}

func (l *endLog) Trace(ev diva.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ev.Kind == diva.KindRunEnd {
		l.ends = append(l.ends, l.n)
		l.metrics = ev.Metrics
	}
	l.n++
}

// fallbackInstance makes a two-component Σ whose component-wise coloring
// leaves one rest row at k = 2, so a Shards run re-colors Σ jointly.
func fallbackInstance(t *testing.T) (*diva.Relation, diva.Constraints) {
	t.Helper()
	rel, err := diva.ReadAnnotatedCSV(strings.NewReader("A:qi,B:qi,S:sensitive\na0,b0,s0\na0,b0,s1\na1,b1,s0\na1,b1,s1\na0,b1,s0\n"))
	if err != nil {
		t.Fatal(err)
	}
	return rel, diva.Constraints{diva.NewConstraint("A", "a0", 2, 3), diva.NewConstraint("A", "a1", 2, 2)}
}

// TestCallerRecorderMatchesEngine: every tracer on a run — the caller's
// Options.Tracer, the run registry's flight recorder and the run's registry
// profiler — sees exactly one KindRunEnd, as its last event, carrying
// Result.Metrics itself, in every execution mode and on every outcome; a
// caller's Recorder therefore snapshots the engine's metrics exactly. A
// Profiler teed beside it keeps the per-node activity: its node assigns and
// backtracks sum to the run's totals, so the replay of portfolio winners and
// components stays checked.
func TestCallerRecorderMatchesEngine(t *testing.T) {
	obs.EnableProfiling(true)
	defer obs.EnableProfiling(false)
	infeasible := diva.Constraints{diva.NewConstraint("ETH", "Asian", 9, 12)}
	fbRel, fbSigma := fallbackInstance(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name    string
		ctx     context.Context
		rel     *diva.Relation
		sigma   diva.Constraints
		opts    diva.Options
		outcome string
	}{
		{"sequential", nil, nil, paperSigma(), diva.Options{K: 2}, "ok"},
		{"portfolio", nil, nil, paperSigma(), diva.Options{K: 2, Parallel: 3}, "ok"},
		{"sharded", nil, nil, paperSigma(), diva.Options{K: 2, Shards: 2}, "ok"},
		{"fallback", nil, fbRel, fbSigma, diva.Options{K: 2, Shards: 2, Strategy: diva.MinChoice}, "ok"},
		{"baseline-only", nil, nil, nil, diva.Options{K: 2, Baseline: diva.KMember}, "ok"},
		{"baseline-only-canceled", canceled, nil, nil, diva.Options{K: 2}, "canceled"},
		{"infeasible", nil, nil, infeasible, diva.Options{K: 2}, "infeasible"},
		{"infeasible-portfolio", nil, nil, infeasible, diva.Options{K: 2, Parallel: 3}, "infeasible"},
		{"canceled", canceled, nil, paperSigma(), diva.Options{K: 2}, "canceled"},
		{"k0", nil, nil, paperSigma(), diva.Options{}, "error"},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, rel := c.ctx, c.rel
			if ctx == nil {
				ctx = context.Background()
			}
			if rel == nil {
				rel = loadPatients(t)
			}
			log, rec, prof := &endLog{}, diva.NewRecorder(), diva.NewProfiler()
			opts := c.opts
			opts.Seed, opts.Tracer = 1, trace.Tee(log, rec, prof)
			res, err := diva.AnonymizeContext(ctx, rel, c.sigma, opts)
			if got := diva.RunOutcome(err); got != c.outcome {
				t.Fatalf("outcome %q (err %v), want %q", got, err, c.outcome)
			}
			e := res.Metrics
			if len(log.ends) != 1 || log.ends[0] != log.n-1 || log.metrics != e {
				t.Fatalf("caller tracer saw run-ends at %v of %d events, last carrying %p; want one, last, carrying Result.Metrics %p",
					log.ends, log.n, log.metrics, e)
			}
			events, _, ok := obs.Runs.RunEvents(e.RunID)
			if !ok {
				t.Fatalf("run %d unknown to the registry", e.RunID)
			}
			for i, fe := range events {
				if last := i == len(events)-1; (fe.Event.Kind == diva.KindRunEnd) != last || (last && fe.Event.Metrics != e) {
					t.Fatalf("registry flight event %d of %d is %s; want run-end carrying Result.Metrics last only", i, len(events), fe.Event.Kind)
				}
			}
			if p := obs.Runs.Profile(e.RunID); p == nil || p.Metrics != e || p.Outcome != c.outcome {
				t.Fatalf("engine profile = %+v, want Result.Metrics and outcome %q", p, c.outcome)
			}
			if got := rec.Snapshot(); !reflect.DeepEqual(*got, *e) {
				t.Fatalf("caller recorder %+v\n != engine metrics %+v", *got, *e)
			}
			p := prof.Profile()
			if p.Metrics != e || p.Outcome != c.outcome {
				t.Fatalf("caller profile carries %p/%q, want Result.Metrics %p/%q", p.Metrics, p.Outcome, e, c.outcome)
			}
			if c.outcome == "ok" && (e.Steps == 0) != (len(c.sigma) == 0) {
				t.Fatalf("engine metrics carry search work %d for |Σ| = %d: %+v", e.Steps, len(c.sigma), e)
			}
			if c.outcome == "ok" && len(e.Phases) < 7 {
				t.Fatalf("a completed run timed phases %+v, want all seven", e.Phases)
			}
			if c.opts.Parallel > 0 && err == nil && e.WinnerStrategy == "" {
				t.Fatal("portfolio run names no winner")
			}
			if c.opts.Shards > 0 && e.SigmaComponents == 0 {
				t.Fatal("sharded run reports no Σ components")
			}
			if c.name == "fallback" {
				// The rejected component-wise attempt's replayed activity is
				// in the profile; the totals are the joint search's alone.
				colors := 0
				for _, pt := range e.Phases {
					if pt.Phase == diva.PhaseColor {
						colors++
					}
				}
				if colors != 2 {
					t.Fatalf("fallback phases = %v, want two color phases", e.Phases)
				}
				return
			}
			assigns, backtracks := 0, 0
			for _, n := range p.Nodes {
				assigns += n.Assigns
				backtracks += n.Backtracks
			}
			if assigns != e.Steps || backtracks != e.Backtracks {
				t.Fatalf("profiler nodes sum to %d assigns / %d backtracks, engine has %d / %d",
					assigns, backtracks, e.Steps, e.Backtracks)
			}
		})
	}
}

// TestConcurrentRunsRegistryAndMetrics is the satellite-3 race exercise:
// concurrent AnonymizeContext calls with mixed outcomes (success, canceled,
// no-diverse-clustering) drive the run registry and the histogram counters
// from many goroutines at once. Run under -race via `make race`.
func TestConcurrentRunsRegistryAndMetrics(t *testing.T) {
	rel := loadPatients(t)
	okSigma := paperSigma()
	badSigma := diva.Constraints{diva.NewConstraint("ETH", "Asian", 9, 12)}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	const n = 8
	var wg sync.WaitGroup
	outcomes := make([]string, n)
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			sigma := okSigma
			opts := diva.Options{K: 2, Seed: uint64(i + 1)}
			switch i % 4 {
			case 1:
				sigma = badSigma
			case 2:
				ctx = canceled
			case 3:
				opts.Parallel = 3
			}
			res, err := diva.AnonymizeContext(ctx, rel, sigma, opts)
			switch {
			case err == nil:
				outcomes[i] = "ok"
			case errors.Is(err, diva.ErrCanceled):
				outcomes[i] = "canceled"
			case errors.Is(err, diva.ErrNoDiverseClustering):
				outcomes[i] = "infeasible"
			default:
				outcomes[i] = "unexpected: " + err.Error()
			}
			if res != nil && res.Metrics != nil {
				ids[i] = res.Metrics.RunID
			}
		}(i)
	}
	wg.Wait()

	for i, got := range outcomes {
		want := map[int]string{0: "ok", 1: "infeasible", 2: "canceled", 3: "ok"}[i%4]
		if got != want {
			t.Fatalf("run %d outcome = %q, want %q", i, got, want)
		}
	}
	seen := make(map[uint64]bool)
	for i, id := range ids {
		if id == 0 {
			t.Fatalf("run %d got no RunID", i)
		}
		if seen[id] {
			t.Fatalf("duplicate RunID %d", id)
		}
		seen[id] = true
	}

	if live := obs.Runs.LiveCount(); live != 0 {
		t.Fatalf("%d runs still live after wg.Wait", live)
	}
	_, completed := obs.Runs.Snapshot()
	states := map[string]int{}
	for _, info := range completed {
		if seen[info.ID] {
			states[info.State]++
		}
	}
	if states["ok"] != 4 || states["infeasible"] != 2 || states["canceled"] != 2 {
		t.Fatalf("completed ring outcomes = %v, want 4 ok / 2 infeasible / 2 canceled", states)
	}

	var b bytes.Buffer
	obs.Metrics.WritePrometheus(&b)
	expo := b.String()
	for _, want := range []string{
		`diva_runs_total{outcome="ok"}`,
		`diva_runs_total{outcome="infeasible"}`,
		`diva_runs_total{outcome="canceled"}`,
		`diva_phase_duration_seconds_bucket{phase="color",le=`,
		"diva_search_steps_bucket",
		"diva_search_heartbeats_total",
		"diva_accuracy_bucket",
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("/metrics exposition missing %q", want)
		}
	}
}

// TestEngineProfilingDepositsProfile is the engine↔ops handshake for the
// profiler: with profiling enabled, every core run's completed registry
// record must carry a finished profile, labeled with constraint names and
// carrying the reconstructed tree.
func TestEngineProfilingDepositsProfile(t *testing.T) {
	obs.EnableProfiling(true)
	defer obs.EnableProfiling(false)

	res, err := diva.AnonymizeContext(context.Background(), loadPatients(t), paperSigma(), diva.Options{
		K: 2, Strategy: diva.MinChoice, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := obs.Runs.Profile(res.Metrics.RunID)
	if p == nil {
		t.Fatalf("no profile for run %d in obs.Runs (profiled runs: %v)", res.Metrics.RunID, obs.Runs.ProfileIDs())
	}
	if p.Outcome != "ok" {
		t.Fatalf("outcome = %q", p.Outcome)
	}
	if p.Root == nil || len(p.Root.Children) == 0 {
		t.Fatal("profile has no search tree")
	}
	if p.Metrics != res.Metrics {
		t.Fatalf("profile metrics %+v, want the run's %+v", p.Metrics, res.Metrics)
	}
	if len(p.Nodes) != 3 || p.Nodes[0].Label == "" {
		t.Fatalf("graph description missing: nodes = %+v", p.Nodes)
	}
}

// TestProfileServedWhenRunEndPublished: a subscriber that sees a run's
// run-end already finds the run's profile in the registry, carrying the
// run's own metrics and outcome — the profile is finalized before the run
// enters the completed ring and its run-end is published.
func TestProfileServedWhenRunEndPublished(t *testing.T) {
	obs.EnableProfiling(true)
	defer obs.EnableProfiling(false)
	sub := obs.Runs.Events().Subscribe(0, 4096)
	defer obs.Runs.Events().Unsubscribe(sub)

	type profiled struct {
		id      uint64
		metrics *diva.RunMetrics
		outcome string
		served  bool
	}
	seen := make(chan profiled, 1)
	go func() {
		for ev := range sub.Events() {
			if ev.Entry.Kind != diva.KindRunEnd {
				continue
			}
			p := obs.Runs.Profile(ev.RunID)
			got := profiled{id: ev.RunID, served: p != nil}
			if p != nil {
				got.metrics, got.outcome = p.Metrics, p.Outcome
			}
			seen <- got
			return
		}
	}()
	res, err := diva.AnonymizeContext(context.Background(), loadPatients(t), paperSigma(), diva.Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := <-seen
	if got.id != res.Metrics.RunID {
		t.Fatalf("first run-end is run %d, want %d", got.id, res.Metrics.RunID)
	}
	if !got.served || got.metrics != res.Metrics || got.outcome != "ok" {
		t.Fatalf("at run-end the registry served profile %v with metrics %p outcome %q; want Result.Metrics %p, outcome ok",
			got.served, got.metrics, got.outcome, res.Metrics)
	}
}
