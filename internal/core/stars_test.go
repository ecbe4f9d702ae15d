package core_test

import (
	"context"
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/hierarchy"
	"diva/internal/metrics"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/search"
)

// TestStarsCountedAtWrite holds the engine's ★ count — summed where the
// suppress, baseline and integrate phases write the cells, not scanned from
// R′ — to a scan of the published relation: Metrics.SuppressedCells equals
// metrics.SuppressionLoss and Metrics.Accuracy equals metrics.Accuracy
// exactly, across both drivers, Integrate repairs, generalization, ★s
// already in R and an l-diversity criterion.
func TestStarsCountedAtWrite(t *testing.T) {
	census := dataset.CensusSized(3000).Generate(3000, 7)
	for _, tc := range []struct {
		name  string
		rel   *relation.Relation
		sigma constraint.Set
		opts  core.Options
		// check asserts what makes the case the one it names.
		check func(t *testing.T, res *core.Result)
	}{
		{
			name:  "default",
			rel:   census,
			sigma: proportionalSigma(t, census, 4, 10),
			opts:  core.Options{K: 10},
		},
		{
			name:  "shards=2",
			rel:   census,
			sigma: proportionalSigma(t, census, 4, 10),
			opts:  core.Options{K: 10, Shards: 2},
			check: func(t *testing.T, res *core.Result) {
				if res.Metrics.SigmaComponents < 1 {
					t.Fatal("the run did not take the component-wise driver")
				}
			},
		},
		{
			name:  "integrate-repair",
			rel:   skewedRelation(t, 200),
			sigma: constraint.Set{constraint.New("GRP", "common", 10, 30)},
			opts:  core.Options{K: 5},
			check: func(t *testing.T, res *core.Result) {
				if res.RepairedCells == 0 {
					t.Fatal("Integrate repaired nothing")
				}
			},
		},
		{
			name:  "hierarchies",
			rel:   regionRelation(t),
			sigma: constraint.Set{constraint.New("CTY", "Edmonton", 4, 4)},
			opts:  core.Options{K: 4, Hierarchies: regionHierarchies(t), Anonymizer: byDiag{}},
			check: func(t *testing.T, res *core.Result) {
				cty := 0
				var lifted, starred bool
				for i := 0; i < res.Output.Len(); i++ {
					switch res.Output.Value(i, cty) {
					case "West", "East":
						lifted = true
					case relation.Star:
						starred = true
					}
				}
				if !lifted || !starred {
					t.Fatalf("want CTY cells generalized to a region and to ★, got region=%v ★=%v", lifted, starred)
				}
			},
		},
		{
			name:  "star-in-input",
			rel:   starredRelation(t),
			sigma: constraint.Set{constraint.New("A", "a1", 4, 40)},
			opts:  core.Options{K: 4},
		},
		{
			name:  "l-diversity",
			rel:   diverseDiagRelation(t, 120),
			sigma: constraint.Set{constraint.New("ETH", "Asian", 4, 60), constraint.New("ETH", "African", 4, 60)},
			opts:  core.Options{K: 4, Criterion: privacy.DistinctLDiversity{L: 3}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Strategy, opts.Rng = search.MinChoice, testRng()
			res, err := core.Anonymize(context.Background(), tc.rel, tc.sigma, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
			if got, want := res.Metrics.SuppressedCells, metrics.SuppressionLoss(res.Output); got != want {
				t.Fatalf("Metrics.SuppressedCells = %d, R′ holds %d ★s", got, want)
			}
			if got, want := res.Metrics.Accuracy, metrics.Accuracy(res.Output); got != want {
				t.Fatalf("Metrics.Accuracy = %v, metrics.Accuracy = %v", got, want)
			}
		})
	}
}

// regionRelation holds four Edmonton rows for the diverse clustering and
// three groups of four rows for the baseline, told apart by DIAG (see
// byDiag): one mixing cities of the West, one of the East, and one of both
// regions, whose CTY generalizes to ★ under regionHierarchies.
func regionRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	for g, cities := range [][2]string{{"Edmonton", "Edmonton"}, {"Vancouver", "Calgary"}, {"Toronto", "Ottawa"}, {"Vancouver", "Toronto"}} {
		for i := 0; i < 4; i++ {
			rel.MustAppendValues(cities[i%2], strconv.Itoa(30+g*11+i), "g"+strconv.Itoa(g))
		}
	}
	return rel
}

// byDiag is a baseline partitioner grouping rows by their DIAG value.
type byDiag struct{}

func (byDiag) Name() string { return "by-diag" }

func (byDiag) Partition(_ context.Context, rel *relation.Relation, rows []int, _ int) ([][]int, error) {
	return rel.GroupBy([]int{2}, rows), nil
}

func regionHierarchies(t *testing.T) hierarchy.Set {
	t.Helper()
	cty, err := hierarchy.NewBuilder("CTY").
		Add(relation.Star, "West", "East").
		Add("West", "Vancouver", "Calgary", "Edmonton").
		Add("East", "Toronto", "Ottawa").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	age, err := hierarchy.Intervals("AGE", 0, 99, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	return hierarchy.Set{"CTY": cty, "AGE": age}
}

// starredRelation holds input ★s on a QI attribute, in clusters uniform on
// it and in mixed ones alike.
func starredRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	))
	rng := rand.New(rand.NewPCG(3, 9))
	for i := 0; i < 80; i++ {
		b := "b" + strconv.Itoa(rng.IntN(3))
		if rng.IntN(3) == 0 {
			b = relation.Star
		}
		rel.MustAppendValues("a"+strconv.Itoa(rng.IntN(3)), b, "s"+strconv.Itoa(i%4))
	}
	return rel
}
