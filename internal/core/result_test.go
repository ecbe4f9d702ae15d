package core_test

import (
	"context"
	"slices"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/metrics"
	"diva/internal/search"
)

// TestResultPartsShareOutput pins how a Result's relations relate: Output is
// RΣ followed by Rk, Diverse and Rest are views of it, and Integrate's
// repairs are therefore in Output. The instance forces repairs (see
// TestIntegrateRepairsUpperBound): before them, R′ holds more than the
// upper bound of 30 occurrences of "common".
func TestResultPartsShareOutput(t *testing.T) {
	rel := skewedRelation(t, 200)
	sigma := constraint.Set{constraint.New("GRP", "common", 10, 30)}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolithic", 0},
		{"ShardsAuto", core.ShardsAuto},
		{"shards=2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
				K: 5, Strategy: search.MinChoice, Rng: testRng(), Shards: tc.shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.shards == 2 && res.Metrics.SigmaComponents < 1 {
				t.Fatal("the component-wise driver did not produce the result")
			}
			out, d := res.Output, res.Diverse.Len()
			if out.Len() != d+res.Rest.Len() || out.Len() != rel.Len() {
				t.Fatalf("Output has %d rows, Diverse %d, Rest %d, R %d", out.Len(), d, res.Rest.Len(), rel.Len())
			}
			for i := 0; i < out.Len(); i++ {
				want := res.Rest
				j := i - d
				if i < d {
					want, j = res.Diverse, i
				}
				if !slices.Equal(out.Row(i), want.Row(j)) {
					t.Fatalf("Output row %d = %v, want %v", i, out.Values(i), want.Values(j))
				}
			}
			if res.Rest.Len() > 0 && &res.Rest.Row(0)[0] != &out.Row(d)[0] {
				t.Fatal("Rest does not share Output's storage")
			}
			if res.RepairedCells == 0 {
				t.Fatal("expected Integrate repairs, got none")
			}
			b, _ := sigma[0].Bound(out)
			if n := b.CountIn(out); n > 30 {
				t.Fatalf("Output holds %d occurrences after %d repairs: the repairs missed it", n, res.RepairedCells)
			}
			if err := core.Verify(rel, res, sigma, 5); err != nil {
				t.Fatal(err)
			}
			if got, want := res.Metrics.Accuracy, metrics.Accuracy(out); got != want {
				t.Fatalf("Metrics.Accuracy = %v, metrics.Accuracy(Output) = %v", got, want)
			}
		})
	}
}
