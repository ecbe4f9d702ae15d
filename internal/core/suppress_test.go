package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"diva/internal/anon"
	"diva/internal/core"
	"diva/internal/metrics"
	"diva/internal/relation"
	"diva/internal/trace"
)

func TestSuppressFormsQIGroups(t *testing.T) {
	rel := paperRelation(t)
	// Clusters: {t9, t10} (rows 8, 9) and {t5, t6} (rows 4, 5).
	out := core.Suppress(rel, [][]int{{8, 9}, {4, 5}})
	if out.Len() != 4 {
		t.Fatalf("suppressed relation has %d tuples", out.Len())
	}
	if !metrics.IsKAnonymous(out, 2) {
		t.Fatal("clusters did not become QI-groups")
	}
	// First cluster: Female/Asian shared; AGE, PRV, CTY differ.
	schema := out.Schema()
	gen, _ := schema.Index("GEN")
	eth, _ := schema.Index("ETH")
	age, _ := schema.Index("AGE")
	if out.Value(0, gen) != "Female" || out.Value(0, eth) != "Asian" {
		t.Fatalf("shared values suppressed: %v", out.Values(0))
	}
	if !out.IsSuppressed(0, age) {
		t.Fatal("differing AGE not suppressed")
	}
	// Sensitive attribute survives verbatim.
	diag, _ := schema.Index("DIAG")
	if out.Value(0, diag) != "Influenza" {
		t.Fatalf("sensitive value changed: %q", out.Value(0, diag))
	}
}

func TestSuppressIdenticalClusterNoLoss(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
	)
	rel := relation.New(schema)
	for i := 0; i < 3; i++ {
		rel.MustAppendValues("x", "y")
	}
	out := core.Suppress(rel, [][]int{{0, 1, 2}})
	if metrics.SuppressionLoss(out) != 0 {
		t.Fatal("identical cluster suffered suppression")
	}
}

func TestSuppressDropsIdentifiers(t *testing.T) {
	schema := relation.MustSchema(
		relation.Attribute{Name: "SSN", Role: relation.Identifier},
		relation.Attribute{Name: "A", Role: relation.QI},
	)
	rel := relation.New(schema)
	rel.MustAppendValues("123", "x")
	rel.MustAppendValues("456", "x")
	out := core.Suppress(rel, [][]int{{0, 1}})
	for i := 0; i < out.Len(); i++ {
		if out.Value(i, 0) != relation.Star {
			t.Fatalf("identifier survived: %q", out.Value(i, 0))
		}
	}
}

func TestSuppressSkipsEmptyClusters(t *testing.T) {
	rel := paperRelation(t)
	out := core.Suppress(rel, [][]int{{}, {0, 1}})
	if out.Len() != 2 {
		t.Fatalf("empty cluster contributed tuples: %d", out.Len())
	}
}

func TestBaselineOnlyIsKAnonymous(t *testing.T) {
	rel := paperRelation(t)
	for _, name := range []string{"k-member", "oka", "mondrian"} {
		out, err := baselineByName(t, rel, name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !metrics.IsKAnonymous(out, 3) {
			t.Fatalf("%s output not 3-anonymous", name)
		}
		if out.Len() != rel.Len() {
			t.Fatalf("%s changed cardinality", name)
		}
		if err := metrics.VerifySuppressionOf(rel, out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestBaselineOnlyEndsWithRunEnd: a baseline-only run (Σ = ∅) ends with
// exactly one KindRunEnd, last, whose metrics carry every phase of the one
// driver and the total — so a Recorder reports phases — and a run canceled
// before it starts ends with no phase and a run-end that says so.
func TestBaselineOnlyEndsWithRunEnd(t *testing.T) {
	rel := paperRelation(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name    string
		ctx     context.Context
		phases  []trace.Phase
		outcome string
	}{
		{"ok", context.Background(), []trace.Phase{
			trace.PhaseBind, trace.PhaseBuildGraph, trace.PhaseColor, trace.PhaseSuppress,
			trace.PhaseBaseline, trace.PhaseIntegrate, trace.PhaseVerify,
		}, "ok"},
		{"canceled", canceled, nil, "canceled"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var events []trace.Event
			rec := trace.NewRecorder()
			log := traceFunc(func(ev trace.Event) { events = append(events, ev) })
			_, err := core.Anonymize(c.ctx, rel, nil, core.Options{
				K: 3, Anonymizer: &anon.Mondrian{Parallelism: 1}, Tracer: trace.Tee(log, rec),
			})
			if got := core.RunOutcome(err); got != c.outcome {
				t.Fatalf("outcome %q (err %v), want %q", got, err, c.outcome)
			}
			ends := 0
			for _, ev := range events {
				if ev.Kind == trace.KindRunEnd {
					ends++
				}
			}
			last := events[len(events)-1]
			if ends != 1 || last.Kind != trace.KindRunEnd || last.Label != c.outcome || last.Metrics == nil {
				t.Fatalf("%d run-end events, last event %+v; want one run-end/%s, last, with metrics", ends, last, c.outcome)
			}
			m := last.Metrics
			var phases []trace.Phase
			for _, pt := range m.Phases {
				phases = append(phases, pt.Phase)
			}
			if !reflect.DeepEqual(phases, c.phases) || m.Total != last.Elapsed || m.Total < m.PhasesTotal() {
				t.Fatalf("run-end metrics %+v (elapsed %v), want phases %v within the total", m, last.Elapsed, c.phases)
			}
			if m.Canceled != errors.Is(err, core.ErrCanceled) {
				t.Fatalf("Canceled = %v for err %v", m.Canceled, err)
			}
			if got := rec.Snapshot(); !reflect.DeepEqual(*got, *m) {
				t.Fatalf("recorder %+v != run-end metrics %+v", *got, *m)
			}
		})
	}
}

// traceFunc adapts a function to trace.Tracer.
type traceFunc func(trace.Event)

func (f traceFunc) Trace(ev trace.Event) { f(ev) }
