// Baseline outputs checked against the engine-independent invariant
// checker: partition with each off-the-shelf algorithm, suppress with
// Algorithm 2, and require the published relation to pass every check the
// verifier applies to DIVA's own outputs (cardinality, containment,
// k-anonymity, ★ accounting). Lives in an external test package because
// core (the suppression step) imports anon.
package anon_test

import (
	"strconv"
	"testing"

	"diva/internal/anon"
	"diva/internal/core"
	"diva/internal/metrics"
	"diva/internal/relation"
	"diva/internal/testutil"
	"diva/internal/verify"

	"math/rand/v2"
)

func baselineRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "SSN", Role: relation.Identifier},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	cities := []string{"Calgary", "Toronto", "Vancouver", "Winnipeg"}
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			strconv.Itoa(20+rng.IntN(50)),
			cities[rng.IntN(len(cities))],
			strconv.Itoa(100000+i),
			"D"+strconv.Itoa(rng.IntN(6)),
		)
	}
	return rel
}

// TestBaselineOutputsValidate runs every partitioner over random relations
// and asserts the suppressed output passes the full invariant checker with
// exact suppression accounting.
func TestBaselineOutputsValidate(t *testing.T) {
	rng := testutil.Rng(t)
	ps := []anon.Partitioner{
		&anon.KMember{Rng: rng},
		&anon.OKA{Rng: rng},
		&anon.Mondrian{},
	}
	for _, p := range ps {
		for _, n := range []int{4, 17, 40} {
			for _, k := range []int{2, 3, 5} {
				if n < k {
					continue // no legal partition, by the Partitioner contract
				}
				rel := baselineRelation(rng, n)
				rows := make([]int, rel.Len())
				for i := range rows {
					rows[i] = i
				}
				parts, err := p.Partition(nil, rel, rows, k)
				if err != nil {
					t.Fatalf("%s n=%d k=%d: %v", p.Name(), n, k, err)
				}
				out := core.Suppress(rel, parts)
				rep := verify.ValidateOutput(rel, out, nil, k, verify.Options{
					CheckStars: true,
					Stars:      metrics.SuppressionLoss(out),
				})
				if err := rep.Err(); err != nil {
					t.Fatalf("%s n=%d k=%d: output fails validation:\n%v", p.Name(), n, k, err)
				}
				if rep.Groups == 0 && n > 0 {
					t.Fatalf("%s n=%d k=%d: no QI-groups measured", p.Name(), n, k)
				}
			}
		}
	}
}
