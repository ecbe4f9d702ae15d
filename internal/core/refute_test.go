package core_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/history"
	"diva/internal/trace"
	"diva/internal/verify"
)

// TestRefutedRunSkipsSearch: a Σ the counting rule refutes ends the run in
// the bind phase, jointly and component-wise alike. The error wraps both
// ErrNoDiverseClustering and the proof, no graph is built, nothing is
// searched, and the run-end event and the ledger carry the proof's text.
func TestRefutedRunSkipsSearch(t *testing.T) {
	const k = 10
	rel := dataset.CensusSized(400).Generate(400, 1)
	sigma, ok := verify.DenseCensusSigma(rel, k, 2)
	if !ok {
		t.Fatal("census sample has no REGION core")
	}
	for _, shards := range []int{0, 2} {
		dir := t.TempDir()
		var started []trace.Phase
		var end trace.Event
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:          k,
			Rng:        testRng(),
			Shards:     shards,
			HistoryDir: dir,
			Tracer: traceFunc(func(ev trace.Event) {
				switch ev.Kind {
				case trace.KindPhaseStart:
					started = append(started, ev.Phase)
				case trace.KindRunEnd:
					end = ev
				}
			}),
		})
		var ref *constraint.Refutation
		if !errors.Is(err, core.ErrNoDiverseClustering) || !errors.As(err, &ref) {
			t.Fatalf("shards=%d: err = %v, want a refutation wrapping ErrNoDiverseClustering", shards, err)
		}
		if ref.Bound.Source.Key() != sigma[0].Key() || len(ref.Family) != 2 {
			t.Errorf("shards=%d: proof %v, want the REGION cap over its two sex targets", shards, ref)
		}
		if !slices.Equal(started, []trace.Phase{trace.PhaseBind}) || res.Metrics.Steps != 0 {
			t.Errorf("shards=%d: phases %v, %d steps; want bind alone and no search", shards, started, res.Metrics.Steps)
		}
		if end.Label != "infeasible" || end.Err != err.Error() {
			t.Errorf("shards=%d: run-end %q with error %q, want infeasible with %q", shards, end.Label, end.Err, err)
		}
		got, lerr := history.Load(dir)
		if lerr != nil {
			t.Fatal(lerr)
		}
		if len(got.Records) != 1 || got.Records[0].Error != err.Error() {
			t.Errorf("shards=%d: ledger %+v, want one record with the proof", shards, got.Records)
		}
	}
}
