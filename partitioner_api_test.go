package diva_test

// Tests for the pluggable Partitioner surface: NewBaseline construction,
// Options.Anonymizer injection, and the Parallelism determinism contract.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"diva"
)

// countingPartitioner decorates another Partitioner, recording how often the
// engine called it — the README's decorator example, as a test.
type countingPartitioner struct {
	inner diva.Partitioner
	calls int
}

func (c *countingPartitioner) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c *countingPartitioner) Partition(ctx context.Context, rel *diva.Relation, rows []int, k int) ([][]int, error) {
	c.calls++
	return c.inner.Partition(ctx, rel, rows, k)
}

func TestNewBaseline(t *testing.T) {
	for _, c := range []struct {
		b    diva.Baseline
		name string
	}{
		{diva.KMember, "k-member"},
		{diva.OKA, "OKA"},
		{diva.Mondrian, "Mondrian"},
		{diva.Baseline(""), "Mondrian"}, // zero value is the default
	} {
		p, err := diva.NewBaseline(c.b)
		if err != nil {
			t.Fatalf("NewBaseline(%q): %v", c.b, err)
		}
		if p.Name() != c.name {
			t.Fatalf("NewBaseline(%q).Name() = %q, want %q", c.b, p.Name(), c.name)
		}
	}
	var ub *diva.UnknownBaselineError
	if _, err := diva.NewBaseline("magic"); !errors.As(err, &ub) {
		t.Fatalf("NewBaseline(magic): want UnknownBaselineError, got %v", err)
	}
}

// TestOptionsAnonymizer injects a caller-supplied partitioner end to end and
// checks it both runs and overrides the Baseline enum entirely (an invalid
// enum value must not even be parsed when Anonymizer is set).
func TestOptionsAnonymizer(t *testing.T) {
	rel := loadPatients(t)
	inner, err := diva.NewBaseline(diva.Mondrian)
	if err != nil {
		t.Fatal(err)
	}
	stub := &countingPartitioner{inner: inner}
	res, err := diva.AnonymizeContext(context.Background(), rel, paperConstraints(), diva.Options{
		K:          2,
		Seed:       1,
		Baseline:   "magic", // ignored: Anonymizer wins
		Anonymizer: stub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stub.calls == 0 {
		t.Fatal("injected Anonymizer was never called")
	}
	if !diva.IsKAnonymous(res.Output, 2) {
		t.Fatal("output not 2-anonymous under injected partitioner")
	}
	if err := diva.Verify(rel, res, paperConstraints(), 2); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsAnonymizerBaselinePath: the injected partitioner also drives a
// baseline-only run (Σ = ∅), whatever Baseline enum is set.
func TestOptionsAnonymizerBaselinePath(t *testing.T) {
	rel := loadPatients(t)
	inner, err := diva.NewBaseline(diva.KMember)
	if err != nil {
		t.Fatal(err)
	}
	stub := &countingPartitioner{inner: inner}
	res, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 3, Baseline: "magic", Anonymizer: stub})
	if err != nil {
		t.Fatal(err)
	}
	if stub.calls == 0 {
		t.Fatal("injected Anonymizer was never called")
	}
	if !diva.IsKAnonymous(res.Output, 3) {
		t.Fatal("output not 3-anonymous under injected partitioner")
	}
}

// TestParallelismDeterminism pins the tentpole determinism contract at the
// public level: any Options.Parallelism value yields byte-identical CSV
// output to the sequential run. (Run with -race in CI via `make ci`.)
func TestParallelismDeterminism(t *testing.T) {
	render := func(parallelism int) string {
		rel := censusRelation(t, 3000)
		res, err := diva.AnonymizeContext(context.Background(), rel, censusSigma(), diva.Options{
			K:           4,
			Seed:        9,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := diva.WriteCSV(&buf, res.Output); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(1)
	for _, p := range []int{0, 2, 4, 8} {
		if got := render(p); got != want {
			t.Fatalf("Parallelism=%d output differs from sequential", p)
		}
	}

	// Same contract on the paper's patients fixture (small enough that the
	// fan-out never triggers — the sequential code path must be identical).
	patients := func(parallelism int) string {
		res, err := diva.AnonymizeContext(context.Background(), loadPatients(t), paperConstraints(), diva.Options{
			K:           2,
			Seed:        1,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatalf("patients parallelism %d: %v", parallelism, err)
		}
		var buf bytes.Buffer
		if err := diva.WriteCSV(&buf, res.Output); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	wantP := patients(1)
	for _, p := range []int{0, 4} {
		if got := patients(p); got != wantP {
			t.Fatalf("patients Parallelism=%d output differs from sequential", p)
		}
	}
}
