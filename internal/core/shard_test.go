package core_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"diva/internal/anon"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
)

// TestShardedPaperExample runs the paper's Example 3.1 through the
// component-wise driver and checks the output passes the full invariant
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
		})
	}
}

// TestShardedDeterministic runs the same sharded configuration twice and
// requires byte-identical output — the acceptance bar for the component-wise
// path's determinism (pre-drawn component seeds).
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
// component and the joint search's totals.
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
	if colors != 2 || m.SigmaComponents != 1 {
		t.Fatalf("fallback metrics: %d color phases, %d components; want 2, 1", colors, m.SigmaComponents)
	}
}

// TestShardedFallbackSucceeds forces a fallback that ends feasible: Σ splits
// into two components whose colorings together leave one rest tuple (< k),
// so the driver re-enters build-graph and color jointly, and the joint
// search's Accept hook finds a clustering that leaves no rest at all. The
// sharded run must publish exactly the monolithic relation, keep the
// component count of its first attempt, and run no suppress phase for the
// rejected component-wise clustering.
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
	if m.SigmaComponents != 2 {
		t.Fatalf("fallback metrics: %d components, want 2", m.SigmaComponents)
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

// TestShardedEmptySigma runs a component-wise run with no constraints at
// all: Σ has no components, the whole relation is rest, and the output must
// be byte-identical to the joint run's.
func TestShardedEmptySigma(t *testing.T) {
	rel := paperRelation(t)
	render := func(shards int) (*core.Result, []byte) {
		res, err := core.Anonymize(context.Background(), rel, nil, core.Options{
			K:        2,
			Strategy: search.MinChoice,
			Rng:      testRng(),
			Shards:   shards,
		})
		if err != nil {
			t.Fatalf("Anonymize shards=%d, empty Σ: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, res.Output); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		return res, buf.Bytes()
	}
	_, joint := render(0)
	res, sharded := render(2)
	if err := core.Verify(rel, res, nil, 2); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got := res.Metrics.SigmaComponents; got != 0 {
		t.Errorf("SigmaComponents = %d, want 0 for empty Σ", got)
	}
	if !bytes.Equal(joint, sharded) {
		t.Fatalf("Shards 2 differs from Shards 0 on empty Σ:\n--- joint\n%s--- shards=2\n%s", joint, sharded)
	}
}

// TestShardedRestIsOnePartition holds a component-wise census run's Rk to
// the paper's Algorithm 1: Result.Rest is the rendering of one default
// Mondrian Partition over every row outside SΣ, in index order (the check
// the benchmark replay makes), and shard counts 2, 4 and 8 publish
// byte-identical relations.
func TestShardedRestIsOnePartition(t *testing.T) {
	const rows, k = 3000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 7)
	sigma := proportionalSigma(t, rel, 4, k)
	var first []byte
	for _, shards := range []int{2, 4, 8} {
		res := anonymize(t, rel, sigma, core.Options{K: k, Rng: testRng(), Shards: shards})
		if res.Metrics.SigmaComponents < 1 {
			t.Fatalf("shards=%d: SigmaComponents = %d, the run was not component-wise", shards, res.Metrics.SigmaComponents)
		}
		if res.RepairedCells != 0 {
			t.Fatalf("shards=%d: Integrate repaired %d cells; Rest is no longer the bare partition", shards, res.RepairedCells)
		}
		used := res.Clustering.RowSet(rel.Len())
		var rest []int
		for row := 0; row < rel.Len(); row++ {
			if !used.Contains(row) {
				rest = append(rest, row)
			}
		}
		parts, err := (&anon.Mondrian{}).Partition(context.Background(), rel, rest, k)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Suppress(rel, parts)
		if want.Len() != res.Rest.Len() {
			t.Fatalf("shards=%d: Rest has %d rows, one partition renders %d", shards, res.Rest.Len(), want.Len())
		}
		for i := 0; i < want.Len(); i++ {
			if !slices.Equal(res.Rest.Row(i), want.Row(i)) {
				t.Fatalf("shards=%d: Rest row %d = %v, one partition renders %v", shards, i, res.Rest.Values(i), want.Values(i))
			}
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(&buf, res.Output); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("shards=%d publishes a different relation than shards=2", shards)
		}
	}
}
