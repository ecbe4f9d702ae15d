package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
)

// TestShardedPaperExample runs the paper's Example 3.1 through the
// shard-and-merge driver and checks the output passes the full invariant
// suite, for every strategy.
func TestShardedPaperExample(t *testing.T) {
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		t.Run(strat.String(), func(t *testing.T) {
			rel := paperRelation(t)
			sigma := paperSigma()
			res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
				K:        2,
				Strategy: strat,
				Rng:      testRng(),
				Shards:   2,
			})
			if err != nil {
				t.Fatalf("Anonymize sharded: %v", err)
			}
			if err := core.Verify(rel, res, sigma, 2); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if res.Output.Len() != rel.Len() {
				t.Fatalf("output has %d tuples, want %d", res.Output.Len(), rel.Len())
			}
			// σ1–σ3 overlap on rows 5, 7 and 9, so they form one component.
			if got := res.Metrics.SigmaComponents; got != 1 {
				t.Errorf("SigmaComponents = %d, want 1", got)
			}
			if res.Metrics.RestShards < 1 {
				t.Errorf("RestShards = %d, want ≥ 1", res.Metrics.RestShards)
			}
		})
	}
}

// TestShardedDeterministic runs the same sharded configuration twice and
// requires byte-identical output — the acceptance bar for the shard plan's
// determinism (pre-drawn component seeds, QI-sorted stable shards).
func TestShardedDeterministic(t *testing.T) {
	render := func() []byte {
		rel := paperRelation(t)
		sigma := paperSigma()
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:        2,
			Strategy: search.MinChoice,
			Rng:      testRng(),
			Shards:   4,
		})
		if err != nil {
			t.Fatalf("Anonymize sharded: %v", err)
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, res.Output); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return buf.Bytes()
	}
	first, second := render(), render()
	if !bytes.Equal(first, second) {
		t.Fatalf("sharded runs differ for identical options:\n--- first\n%s--- second\n%s", first, second)
	}
}

// TestShardedFallbackAgreesWithMonolithic forces the fallback path: the only
// diverse cluster leaves a single rest tuple (< k), which the per-component
// search cannot see but the monolithic Accept hook rejects. The sharded run
// must fall back and end with exactly the monolithic verdict, and a caller's
// Recorder must still match its metrics: the rejected attempt's phases and
// component, the joint search's totals, and no rest shards.
func TestShardedFallbackAgreesWithMonolithic(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rel.MustAppendValues("a0", "s0")
	rel.MustAppendValues("a0", "s1")
	rel.MustAppendValues("a1", "s0")
	sigma := constraint.Set{constraint.New("A", "a0", 1, 3)}

	run := func(shards int, tr trace.Tracer) (*core.Result, error) {
		return core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:        2,
			Strategy: search.MinChoice,
			Rng:      testRng(),
			Shards:   shards,
			Tracer:   tr,
		})
	}
	_, monoErr := run(0, nil)
	rec := trace.NewRecorder()
	res, shardErr := run(2, rec)
	if (monoErr == nil) != (shardErr == nil) {
		t.Fatalf("verdicts disagree: monolithic %v, sharded %v", monoErr, shardErr)
	}
	if monoErr != nil && !errors.Is(shardErr, core.ErrNoDiverseClustering) {
		t.Fatalf("sharded error %v, want ErrNoDiverseClustering", shardErr)
	}
	m := res.Metrics
	if got := rec.Snapshot(); !reflect.DeepEqual(*got, *m) {
		t.Fatalf("caller recorder %+v\n != engine metrics %+v", *got, *m)
	}
	colors := 0
	for _, pt := range m.Phases {
		if pt.Phase == trace.PhaseColor {
			colors++
		}
	}
	if colors != 2 || m.SigmaComponents != 1 || m.RestShards != 0 {
		t.Fatalf("fallback metrics: %d color phases, %d components, %d rest shards; want 2, 1, 0",
			colors, m.SigmaComponents, m.RestShards)
	}
}

// TestShardedFallbackSucceeds forces a fallback that ends feasible: Σ splits
// into two components whose colorings together leave one rest tuple (< k),
// so the driver re-enters build-graph and color jointly, and the joint
// search's Accept hook finds a clustering that leaves no rest at all. The
// sharded run must publish exactly the monolithic relation, keep the
// component count of its first attempt, plan no rest shards, and run no
// suppress phase for the rejected component-wise clustering.
func TestShardedFallbackSucceeds(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rel.MustAppendValues("a0", "b0", "s0")
	rel.MustAppendValues("a0", "b0", "s1")
	rel.MustAppendValues("a1", "b1", "s0")
	rel.MustAppendValues("a1", "b1", "s1")
	rel.MustAppendValues("a0", "b1", "s0")
	sigma := constraint.Set{constraint.New("A", "a0", 2, 3), constraint.New("A", "a1", 2, 2)}

	run := func(shards int) (*core.Result, []byte) {
		res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
			K:        2,
			Strategy: search.MinChoice,
			Rng:      testRng(),
			Shards:   shards,
		})
		if err != nil {
			t.Fatalf("Anonymize shards=%d: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, res.Output); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return res, buf.Bytes()
	}
	_, mono := run(0)
	res, sharded := run(2)
	if !bytes.Equal(mono, sharded) {
		t.Fatalf("fallback output differs from monolithic:\n--- monolithic\n%s--- sharded\n%s", mono, sharded)
	}
	if err := core.Verify(rel, res, sigma, 2); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	m := res.Metrics
	if m.SigmaComponents != 2 || m.RestShards != 0 {
		t.Fatalf("fallback metrics: %d components, %d rest shards; want 2, 0", m.SigmaComponents, m.RestShards)
	}
	want := []trace.Phase{
		trace.PhaseBind, trace.PhaseBuildGraph, trace.PhaseColor, trace.PhaseBuildGraph, trace.PhaseColor,
		trace.PhaseSuppress, trace.PhaseBaseline, trace.PhaseIntegrate, trace.PhaseVerify,
	}
	var got []trace.Phase
	for _, pt := range m.Phases {
		got = append(got, pt.Phase)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("phases = %v, want %v", got, want)
	}
}

// TestShardedEmptySigma shards a run with no constraints at all: the whole
// relation is rest, and the QI-local shards must still assemble a valid
// k-anonymous output.
func TestShardedEmptySigma(t *testing.T) {
	rel := paperRelation(t)
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{
		K:        2,
		Strategy: search.MinChoice,
		Rng:      testRng(),
		Shards:   3,
	})
	if err != nil {
		t.Fatalf("Anonymize sharded, empty Σ: %v", err)
	}
	if err := core.Verify(rel, res, nil, 2); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := res.Metrics.SigmaComponents; got != 0 {
		t.Errorf("SigmaComponents = %d, want 0 for empty Σ", got)
	}
	if res.Metrics.RestShards < 2 {
		t.Errorf("RestShards = %d, want ≥ 2", res.Metrics.RestShards)
	}
}
