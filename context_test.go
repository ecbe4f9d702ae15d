package diva_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"diva"
	"diva/internal/dataset"
)

// censusRelation generates the synthetic census stand-in used by the
// cancellation tests: large enough that a run takes real time, so prompt
// cancellation is observable.
func censusRelation(t testing.TB, rows int) *diva.Relation {
	t.Helper()
	return dataset.CensusSized(rows).Generate(rows, 42)
}

func censusSigma() diva.Constraints {
	return diva.Constraints{
		diva.NewConstraint("RACE", "Asian-Pac-Islander", 2, 40),
		diva.NewConstraint("RACE", "Amer-Indian", 1, 30),
	}
}

// traceFunc adapts a function to the Tracer interface.
type traceFunc func(diva.Event)

func (f traceFunc) Trace(ev diva.Event) { f(ev) }

// blockingPartitioner implements diva.Partitioner; Partition blocks until
// its context is canceled and returns the context's error, simulating a
// baseline that cannot finish before a deadline.
type blockingPartitioner struct{}

func (blockingPartitioner) Name() string { return "blocking" }

func (blockingPartitioner) Partition(ctx context.Context, rel *diva.Relation, rows []int, k int) ([][]int, error) {
	if ctx == nil {
		return nil, errors.New("blockingPartitioner needs a context")
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestAnonymizeContextPreCanceled is the promptness contract: a context
// that is already canceled must return ErrCanceled without touching the
// data, even on a 10k-row relation.
func TestAnonymizeContextPreCanceled(t *testing.T) {
	rel := censusRelation(t, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := diva.AnonymizeContext(ctx, rel, censusSigma(), diva.Options{K: 5, Seed: 1})
	elapsed := time.Since(start)
	if !errors.Is(err, diva.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to wrap context.Canceled", err)
	}
	if elapsed > 10*time.Millisecond {
		t.Fatalf("pre-canceled run took %v, want < 10ms", elapsed)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("canceled run must still return partial metrics")
	}
	if !res.Metrics.Canceled {
		t.Fatal("Metrics.Canceled = false on a canceled run")
	}
	if res.Output != nil {
		t.Fatal("canceled run must not return an output relation")
	}
}

// TestAnonymizeContextMidSearchCancel cancels from inside the coloring
// search — the tracer fires cancel on the first node assignment — and
// checks the run stops with ErrCanceled and partial metrics.
func TestAnonymizeContextMidSearchCancel(t *testing.T) {
	rel := loadPatients(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := diva.Options{
		K:    2,
		Seed: 1,
		Tracer: traceFunc(func(ev diva.Event) {
			if ev.Kind == diva.KindAssign {
				cancel()
			}
		}),
	}
	res, err := diva.AnonymizeContext(ctx, rel, paperConstraints(), opts)
	if !errors.Is(err, diva.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("canceled run must still return partial metrics")
	}
	if !res.Metrics.Canceled {
		t.Fatal("Metrics.Canceled = false")
	}
	// The run got as far as the coloring: the completed phases are exactly
	// those before it.
	if got := res.Metrics.PhaseDuration(diva.PhaseVerify); got != 0 {
		t.Fatalf("verify phase ran (%v) after mid-search cancel", got)
	}
}

// TestAnonymizeContextDeadlineExceeded lets a deadline expire during the
// baseline phase and checks the run stops promptly with ErrCanceled
// wrapping DeadlineExceeded. The baseline is a stub partitioner that
// blocks until the context dies, so the test is deterministic on any
// machine (the built-in baselines can finish 10k rows inside the
// deadline).
func TestAnonymizeContextDeadlineExceeded(t *testing.T) {
	rel := censusRelation(t, 10000)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := diva.AnonymizeContext(ctx, rel, censusSigma(), diva.Options{
		K: 5, Seed: 1,
		Anonymizer: blockingPartitioner{},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, diva.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to wrap context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline honored after %v, want prompt stop", elapsed)
	}
	if res == nil || res.Metrics == nil || !res.Metrics.Canceled {
		t.Fatal("canceled run must return partial metrics with Canceled set")
	}
}

// TestTracerEventOrdering replays the paper's running example under a
// recording tracer and checks the phase protocol: the seven phases start
// and end in execution order, each start paired with its end, and search
// events appear only inside the color phase.
func TestTracerEventOrdering(t *testing.T) {
	rel := loadPatients(t)
	var events []diva.Event
	opts := diva.Options{
		K:      2,
		Seed:   1,
		Tracer: traceFunc(func(ev diva.Event) { events = append(events, ev) }),
	}
	res, err := diva.AnonymizeContext(context.Background(), rel, paperConstraints(), opts)
	if err != nil {
		t.Fatal(err)
	}

	want := []diva.Phase{
		diva.PhaseBind, diva.PhaseBuildGraph, diva.PhaseColor, diva.PhaseSuppress,
		diva.PhaseBaseline, diva.PhaseIntegrate, diva.PhaseVerify,
	}
	var phases []diva.Phase
	open := ""
	inColor := false
	for _, ev := range events {
		switch ev.Kind {
		case diva.KindPhaseStart:
			if open != "" {
				t.Fatalf("phase %s started while %s still open", ev.Phase, open)
			}
			open = string(ev.Phase)
			phases = append(phases, ev.Phase)
			inColor = ev.Phase == diva.PhaseColor
		case diva.KindPhaseEnd:
			if open != string(ev.Phase) {
				t.Fatalf("phase %s ended while %s open", ev.Phase, open)
			}
			open = ""
			inColor = false
		case diva.KindAssign, diva.KindBacktrack, diva.KindCandidates, diva.KindCacheHit:
			if !inColor {
				t.Fatalf("search event %s outside the color phase", ev.Kind)
			}
		}
	}
	if open != "" {
		t.Fatalf("phase %s never ended", open)
	}
	if len(phases) != len(want) {
		t.Fatalf("saw phases %v, want %v", phases, want)
	}
	for i, ph := range want {
		if phases[i] != ph {
			t.Fatalf("phase[%d] = %s, want %s", i, phases[i], ph)
		}
	}

	// The aggregated metrics mirror the same order, and the per-phase wall
	// times account for the run.
	if res.Metrics == nil {
		t.Fatal("Result.Metrics nil on success")
	}
	if len(res.Metrics.Phases) != len(want) {
		t.Fatalf("Metrics.Phases has %d entries, want %d", len(res.Metrics.Phases), len(want))
	}
	for i, pt := range res.Metrics.Phases {
		if pt.Phase != want[i] {
			t.Fatalf("Metrics.Phases[%d] = %s, want %s", i, pt.Phase, want[i])
		}
	}
	if sum, total := res.Metrics.PhasesTotal(), res.Metrics.Total; sum <= 0 || sum > total {
		t.Fatalf("phase sum %v outside (0, total=%v]", sum, total)
	}
	if res.Metrics.Steps == 0 {
		t.Fatal("Metrics.Steps = 0 after a successful search")
	}
}

// TestPortfolioMetrics runs the portfolio with enough workers for the race
// detector to exercise the coordination, and checks the winner shows up in
// the metrics.
func TestPortfolioMetrics(t *testing.T) {
	rel := loadPatients(t)
	res, err := diva.AnonymizeContext(context.Background(), rel, paperConstraints(), diva.Options{
		K:        2,
		Seed:     3,
		Parallel: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PortfolioWorkers != 4 {
		t.Fatalf("PortfolioWorkers = %d, want 4", res.Metrics.PortfolioWorkers)
	}
	if res.Metrics.WinnerStrategy == "" {
		t.Fatal("WinnerStrategy empty after a portfolio win")
	}
	if !diva.IsKAnonymous(res.Output, 2) {
		t.Fatal("portfolio output not 2-anonymous")
	}
}

// TestPortfolioCancel cancels a portfolio run and checks every worker
// stops (run under -race this also exercises the stop flag).
func TestPortfolioCancel(t *testing.T) {
	rel := censusRelation(t, 4000)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := diva.AnonymizeContext(ctx, rel, censusSigma(), diva.Options{
		K:        5,
		Seed:     1,
		Parallel: 4,
		// The blocking baseline guarantees the run cannot finish before the
		// deadline even on a fast machine, so the cancellation path is always
		// exercised (during the search when it is slow, at the baseline phase
		// otherwise).
		Anonymizer: blockingPartitioner{},
	})
	if !errors.Is(err, diva.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("canceled portfolio run must return partial metrics")
	}
}

// TestResultMetricsOnNoDiverseClustering: the no-solution path still
// reports where the time went.
func TestResultMetricsOnNoDiverseClustering(t *testing.T) {
	rel := loadPatients(t)
	sigma := diva.Constraints{diva.NewConstraint("ETH", "Asian", 9, 12)}
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Seed: 1})
	if !errors.Is(err, diva.ErrNoDiverseClustering) {
		t.Fatalf("err = %v, want ErrNoDiverseClustering", err)
	}
	if res == nil || res.Metrics == nil {
		t.Fatal("failed run must still return metrics")
	}
	if res.Metrics.Canceled {
		t.Fatal("Metrics.Canceled true on an uncanceled failure")
	}
	if res.Metrics.Total <= 0 {
		t.Fatal("Metrics.Total not recorded")
	}
}

func TestParseBaseline(t *testing.T) {
	cases := []struct {
		in   string
		want diva.Baseline
	}{
		{"", diva.Mondrian},
		{"k-member", diva.KMember},
		{"kmember", diva.KMember},
		{"KMember", diva.KMember},
		{"oka", diva.OKA},
		{"OKA", diva.OKA},
		{"mondrian", diva.Mondrian},
		{"Mondrian", diva.Mondrian},
	}
	for _, c := range cases {
		got, err := diva.ParseBaseline(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseBaseline(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := diva.ParseBaseline("magic"); err == nil {
		t.Fatal("ParseBaseline accepted an unknown name")
	}
	var ub *diva.UnknownBaselineError
	if _, err := diva.ParseBaseline("magic"); !errors.As(err, &ub) {
		t.Fatalf("want UnknownBaselineError, got %v", err)
	}
	if got := diva.Baseline("").String(); got != "mondrian" {
		t.Fatalf("zero Baseline String() = %q, want mondrian", got)
	}
	if got := diva.OKA.String(); got != "oka" {
		t.Fatalf("OKA.String() = %q", got)
	}
	// The string-backed type keeps legacy literal assignment compiling.
	var b diva.Baseline = "oka"
	if b != diva.OKA {
		t.Fatal("string literal does not equal the typed constant")
	}
}

// TestBaselineLDiversityCriterion: a baseline-only run (Σ = ∅) threads the
// l-diversity criterion into the partitioner like any run, and rejects OKA
// (which cannot enforce one).
func TestBaselineLDiversityCriterion(t *testing.T) {
	rel := loadPatients(t)
	res, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 2, LDiversity: 2, Seed: 4, Baseline: diva.KMember})
	if err != nil {
		t.Fatal(err)
	}
	if !diva.IsLDiverse(res.Output, 2) {
		t.Fatal("k-member baseline output not 2-diverse despite LDiversity option")
	}
	var ub *diva.UnsupportedBaselineError
	if _, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 2, LDiversity: 2, Baseline: diva.OKA}); !errors.As(err, &ub) {
		t.Fatalf("OKA with l-diversity: want UnsupportedBaselineError, got %v", err)
	} else {
		if ub.Baseline != diva.OKA {
			t.Fatalf("UnsupportedBaselineError.Baseline = %q, want oka", ub.Baseline)
		}
		if ub.Reason == "" {
			t.Fatal("UnsupportedBaselineError.Reason empty")
		}
	}
	// A genuinely unknown name still reports UnknownBaselineError — the two
	// error paths stay distinct.
	var unk *diva.UnknownBaselineError
	if _, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 2, Baseline: "magic"}); !errors.As(err, &unk) {
		t.Fatalf("unknown baseline: want UnknownBaselineError, got %v", err)
	}
}

// TestBaselineContextCanceled: a baseline-only run honors its context too.
func TestBaselineContextCanceled(t *testing.T) {
	rel := censusRelation(t, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := diva.AnonymizeContext(ctx, rel, nil, diva.Options{K: 5, Seed: 1, Baseline: diva.KMember})
	if !errors.Is(err, diva.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}
