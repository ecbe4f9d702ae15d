package anon

import (
	"cmp"
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"diva/internal/privacy"
	"diva/internal/relation"
)

// diffRelation draws a relation exercising every branch of the counting-sort
// Mondrian: ★ cells in every QI column, an unparsable string in a numeric
// column, distinct codes with equal numeric values ("7" and "07"), a numeric
// attribute whose dictionary is far larger than the relation, an occasional
// constant numeric column (cut categorically), and a sensitive column for
// l-diversity.
func diffRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "SEX", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "ZIP", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "CITY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	// Interning ZIP values up front makes its domain much larger than any
	// node, so a cut there must not pay for the domain.
	for z := 0; z < 5000; z++ {
		rel.Dict(2).Code(strconv.Itoa(3 * z))
	}
	constAge := rng.IntN(10) == 0
	cities := 2 + rng.IntN(7)
	for i := 0; i < n; i++ {
		age := strconv.Itoa(20 + rng.IntN(1+rng.IntN(40)))
		switch {
		case constAge:
			age = "40"
		case rng.IntN(15) == 0:
			age = "07"
		case rng.IntN(15) == 0:
			age = "7"
		case rng.IntN(40) == 0:
			age = "unknown"
		}
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			age,
			strconv.Itoa(3*rng.IntN(5000)),
			"C"+strconv.Itoa(rng.IntN(1+rng.IntN(cities))),
			"D"+strconv.Itoa(rng.IntN(3)),
		)
		for a := 0; a < 4; a++ {
			if rng.IntN(25) == 0 {
				rel.Suppress(i, a)
			}
		}
	}
	return rel
}

// TestMondrianMatchesReference differentially checks the counting-sort
// Mondrian against the comparison-sort reference it replaced: identical
// clusters in identical order over random relations, row subsets, k values,
// an l-diversity criterion and every parallelism setting.
func TestMondrianMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x3d1))
		n := 8 + rng.IntN(300)
		if trial%25 == 0 {
			// Large enough for parallel workers to take subtrees.
			n = 3 * spawnGrain
		}
		rel := diffRelation(rng, n)
		rows := allRows(rel)
		if trial%2 == 1 {
			rows = rows[:0:0]
			for r := 0; r < n; r++ {
				if rng.IntN(3) > 0 {
					rows = append(rows, r)
				}
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		for _, k := range []int{2, 3, 10} {
			if len(rows) < k {
				continue
			}
			for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}} {
				if crit != nil && !crit.Holds(rel, rows) {
					continue
				}
				want := referenceMondrian(crit, rel, rows, k)
				for _, par := range []int{1, 0, 4} {
					got, err := (&Mondrian{Criterion: crit, Parallelism: par}).Partition(context.Background(), rel, rows, k)
					if err != nil {
						t.Fatalf("trial %d k=%d crit=%v par=%d: %v", trial, k, crit, par, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d n=%d k=%d crit=%v par=%d: partition diverged from the reference\ngot:  %v\nwant: %v",
							trial, len(rows), k, crit, par, got, want)
					}
				}
			}
		}
	}
}

// TestMondrianClustersDoNotAlias: clusters share one backing array, so each
// must be capped at its own length — appending to one may not write into the
// next cluster or into the caller's rows.
func TestMondrianClustersDoNotAlias(t *testing.T) {
	rel := bigRelation(5, 200)
	rows := allRows(rel)
	orig := slices.Clone(rows)
	for _, par := range []int{1, 0} {
		parts, err := (&Mondrian{Parallelism: par}).Partition(context.Background(), rel, rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) < 2 {
			t.Fatalf("parallelism %d: %d clusters, need at least 2", par, len(parts))
		}
		for i := 0; i+1 < len(parts); i++ {
			next := slices.Clone(parts[i+1])
			parts[i] = append(parts[i], -1)
			if !slices.Equal(parts[i+1], next) {
				t.Fatalf("parallelism %d: appending to cluster %d changed cluster %d", par, i, i+1)
			}
		}
		if !slices.Equal(rows, orig) {
			t.Fatalf("parallelism %d: caller's rows changed", par)
		}
	}
}

// TestMondrianNaNColumn: ParseFloat accepts "NaN", which has no place in a
// < order. NaN takes one fixed rank below every number (cmp.Compare order)
// and stays out of widths, so a NaN-bearing numeric QI column still yields
// a valid k-partition that is the same on every run and at every
// parallelism, with clusters in ascending value order.
func TestMondrianNaNColumn(t *testing.T) {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "X", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	))
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 3*spawnGrain; i++ {
		x := strconv.Itoa(rng.IntN(500))
		if rng.IntN(5) == 0 {
			x = "NaN"
		}
		rel.MustAppendValues(x, "s")
	}
	rows := allRows(rel)
	value := func(r int) float64 {
		v, _ := rel.NumericValue(0, rel.Code(r, 0))
		return v
	}
	const k = 4
	first, err := (&Mondrian{Parallelism: 1}).Partition(context.Background(), rel, rows, k)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, "Mondrian", first, rows, k)
	if len(first) < 10 {
		t.Fatalf("only %d clusters — the NaN column was not cut", len(first))
	}
	for i := 0; i+1 < len(first); i++ {
		hi := slices.MaxFunc(first[i], func(x, y int) int { return cmp.Compare(value(x), value(y)) })
		lo := slices.MinFunc(first[i+1], func(x, y int) int { return cmp.Compare(value(x), value(y)) })
		if cmp.Compare(value(hi), value(lo)) > 0 {
			t.Fatalf("cluster %d reaches %v, above cluster %d's %v", i, value(hi), i+1, value(lo))
		}
	}
	if !math.IsNaN(value(first[0][0])) {
		t.Fatalf("first cluster starts at %v, want NaN", value(first[0][0]))
	}
	for _, par := range []int{1, 0, 4} {
		for run := 0; run < 3; run++ {
			got, err := (&Mondrian{Parallelism: par}).Partition(context.Background(), rel, rows, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("parallelism %d run %d: partition differs from the first run", par, run)
			}
		}
	}
}
