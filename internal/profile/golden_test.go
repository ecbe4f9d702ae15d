package profile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diva"
	"diva/internal/profile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tickClock returns a deterministic clock advancing 1ms per observed event,
// so exported wall times are byte-stable across machines.
func tickClock() func() time.Duration {
	var tick time.Duration
	return func() time.Duration {
		tick += time.Millisecond
		return tick
	}
}

// paperRelation is Table 1 of the paper via the public API.
func paperRelation(t testing.TB) *diva.Relation {
	t.Helper()
	schema := diva.MustSchema(
		diva.Attribute{Name: "GEN", Role: diva.QI},
		diva.Attribute{Name: "ETH", Role: diva.QI},
		diva.Attribute{Name: "AGE", Role: diva.QI, Kind: diva.Numeric},
		diva.Attribute{Name: "PRV", Role: diva.QI},
		diva.Attribute{Name: "CTY", Role: diva.QI},
		diva.Attribute{Name: "DIAG", Role: diva.Sensitive},
	)
	rel := diva.NewRelation(schema)
	for _, row := range [][]string{
		{"Female", "Caucasian", "80", "AB", "Calgary", "Hypertension"},
		{"Female", "Caucasian", "32", "AB", "Calgary", "Tuberculosis"},
		{"Male", "Caucasian", "59", "AB", "Calgary", "Osteoarthritis"},
		{"Male", "Caucasian", "46", "MB", "Winnipeg", "Migraine"},
		{"Male", "African", "32", "MB", "Winnipeg", "Hypertension"},
		{"Male", "African", "43", "BC", "Vancouver", "Seizure"},
		{"Male", "Caucasian", "35", "BC", "Vancouver", "Hypertension"},
		{"Female", "Asian", "58", "BC", "Vancouver", "Seizure"},
		{"Female", "Asian", "63", "MB", "Winnipeg", "Influenza"},
		{"Female", "Asian", "71", "BC", "Vancouver", "Migraine"},
	} {
		rel.MustAppendValues(row...)
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

// seededProfile runs the paper example deterministically (fixed seed,
// sequential MinChoice search, injected clock) and returns the finalized
// profile. The event sequence of such a run is reproducible, so exports can
// be golden-tested byte for byte.
func seededProfile(t *testing.T, sigma diva.Constraints, k int) *profile.Profile {
	t.Helper()
	prof := profile.New(profile.WithClock(tickClock()))
	diva.AnonymizeContext(context.Background(), paperRelation(t), sigma, diva.Options{
		K:        k,
		Strategy: diva.MinChoice,
		Seed:     42,
		Tracer:   prof,
	})
	p := prof.Profile()
	// The baseline partitioner stamps real cut wall times into its split
	// events (they bypass the injected clock), and the run ID depends on how
	// many runs the process made before; pin both so the goldens stay
	// byte-stable across machines and test orders.
	if p.Baseline != nil {
		p.Baseline.CutWall = 42 * time.Microsecond
	}
	p.Metrics.RunID = 0
	return p
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/profile/ -update` to create goldens)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	p := seededProfile(t, paperSigma(), 2)
	if p.Outcome != "ok" {
		t.Fatalf("outcome = %q, want ok", p.Outcome)
	}
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural sanity before byte comparison: valid trace-event JSON with
	// a non-empty traceEvents array of named, timestamped events.
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil {
			t.Fatalf("event %d incomplete: %+v", i, ev)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			t.Fatalf("complete event %d has bad dur: %+v", i, ev)
		}
	}
	checkGolden(t, "chrome_trace.golden.json", buf.Bytes())
}

func TestGoldenFoldedStacks(t *testing.T) {
	p := seededProfile(t, paperSigma(), 2)
	var buf bytes.Buffer
	if err := p.WriteFoldedStacks(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "folded_stacks.golden.txt", buf.Bytes())
}

func TestGoldenSummary(t *testing.T) {
	p := seededProfile(t, paperSigma(), 2)
	var buf bytes.Buffer
	if err := p.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.golden.txt", buf.Bytes())
}

// TestGoldenExplainInfeasible pins the explainer's rendering on a truly
// infeasible instance: at k=3 no cluster can preserve 2..5 Asians, so the
// verdict chain must surface candidate exhaustion and name the culprit.
func TestGoldenExplainInfeasible(t *testing.T) {
	p := seededProfile(t, paperSigma(), 3)
	if p.Outcome != "infeasible" {
		t.Fatalf("outcome = %q, want infeasible", p.Outcome)
	}
	ex := p.Explain()
	if len(ex.Culprits) == 0 {
		t.Fatal("no culprit constraints on an infeasible run")
	}
	checkGolden(t, "explain_infeasible.golden.txt", []byte(ex.String()))
}

// TestExplainUpperBoundPruned drives the conservative-pruning path: the only
// cluster preserving 3 Asians also preserves 3 Females, so σ1's sole
// candidate is rejected by σ0's upper bound — the explainer must say so and
// must NOT claim candidate exhaustion.
func TestExplainUpperBoundPruned(t *testing.T) {
	sigma := diva.Constraints{
		diva.NewConstraint("GEN", "Female", 2, 2),
		diva.NewConstraint("ETH", "Asian", 3, 3),
	}
	p := seededProfile(t, sigma, 2)
	if p.Outcome != "infeasible" {
		t.Fatalf("outcome = %q, want infeasible", p.Outcome)
	}
	ex := p.Explain()
	if ex.Verdict != "upper-bound-pruned" {
		t.Fatalf("verdict = %q, want upper-bound-pruned", ex.Verdict)
	}
	if ex.Last == nil || ex.Last.Blocker != 0 {
		t.Fatalf("last exhaustion = %+v, want blocker 0", ex.Last)
	}
	if len(ex.Culprits) == 0 || ex.Culprits[0].Node != 1 {
		t.Fatalf("culprits = %+v, want σ1 first", ex.Culprits)
	}
	checkGolden(t, "explain_pruned.golden.txt", []byte(ex.String()))
}
