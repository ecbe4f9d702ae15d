package core_test

import (
	"context"
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/relation"
	"diva/internal/search"
)

// TestClusteringAscending: candidate clusters reach the search in
// enumeration order, not row order, and the search sorts each once on
// activation. Result.Clustering must still be sorted on the sharded and the
// portfolio paths. The twin constraints A[x] and B[y] target the same eight
// rows, whose alternating C values make the only candidate window unsorted,
// so the two nodes share one cluster; A[z] forms a second component.
func TestClusteringAscending(t *testing.T) {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.QI},
	))
	for _, g := range []struct {
		a, b string
		n    int
	}{{"x", "y", 8}, {"z", "w", 6}, {"v", "u", 4}} {
		for i := 0; i < g.n; i++ {
			rel.MustAppendValues(g.a, g.b, "c"+strconv.Itoa(i%2))
		}
	}
	sigma := constraint.Set{
		constraint.New("A", "x", 8, 8),
		constraint.New("B", "y", 8, 8),
		constraint.New("A", "z", 4, 6),
	}
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"shards=2", core.Options{Shards: 2}},
		{"parallel=3", core.Options{Parallel: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.K = 2
			opts.Strategy = search.MinChoice
			opts.Rng = testRng()
			res, err := core.Anonymize(context.Background(), rel, sigma, opts)
			if err != nil {
				t.Fatalf("Anonymize: %v", err)
			}
			if err := core.Verify(rel, res, sigma, 2); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if res.Clustering.Tuples() < 12 {
				t.Fatalf("SΣ = %v, want the eight twin rows plus ≥ 4 A[z] rows", res.Clustering)
			}
			for _, c := range res.Clustering {
				for i := 1; i < len(c); i++ {
					if c[i] <= c[i-1] {
						t.Fatalf("SΣ cluster %v is not strictly ascending", c)
					}
				}
			}
		})
	}
}
