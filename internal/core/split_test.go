package core_test

import (
	"context"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/hierarchy"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/search"
)

// TestSplitPassesDeterministic runs the engine on a census sample large
// enough that every split pass — the R′ rendering, the enumerator builds,
// the Σ-wide pool and count scans — runs on several workers, under the
// bench's proportional Σ with upper bounds at 0.9 of the occurrences, so
// Integrate repairs cells and recounts. Every Parallelism must publish the
// same relation, clustering and ★ accounting as one worker, jointly,
// component-wise, with a hierarchy on one QI and under distinct
// 2-diversity.
func TestSplitPassesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine 16 times on 40,000 rows")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rows, k = 40000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 20210323)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     8,
		K:         k,
		Rng:       rand.New(rand.NewPCG(0x51a3, 0x51a3)),
		UpperFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	race := raceHierarchy(t)
	for _, cfg := range []struct {
		name string
		opts core.Options
	}{
		{"joint", core.Options{}},
		{"sharded", core.Options{Shards: core.ShardsAuto}},
		{"hierarchy", core.Options{Hierarchies: hierarchy.Set{"RACE": race}}},
		{"l-diversity", core.Options{Criterion: privacy.DistinctLDiversity{L: 2}}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			run := func(parallelism int) *core.Result {
				opts := cfg.opts
				opts.K, opts.Strategy, opts.Parallelism = k, search.MinChoice, parallelism
				opts.Rng = rand.New(rand.NewPCG(7, 7))
				res, err := core.Anonymize(context.Background(), rel, sigma, opts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", parallelism, err)
				}
				return res
			}
			want := run(1)
			if want.RepairedCells == 0 {
				t.Fatal("Integrate repaired nothing: its recounts go untested")
			}
			for _, p := range []int{2, 4, 0} {
				got := run(p)
				for _, c := range []struct {
					what      string
					got, want *relation.Relation
				}{{"Output", got.Output, want.Output}, {"Diverse", got.Diverse, want.Diverse}, {"Rest", got.Rest, want.Rest}} {
					if !sameRelation(c.got, c.want) {
						t.Fatalf("parallelism %d: %s differs from one worker's", p, c.what)
					}
				}
				if !reflect.DeepEqual(got.Clustering, want.Clustering) {
					t.Fatalf("parallelism %d: clustering differs from one worker's", p)
				}
				if got.RepairedCells != want.RepairedCells || got.Metrics.SuppressedCells != want.Metrics.SuppressedCells {
					t.Fatalf("parallelism %d: %d repaired, %d ★; one worker: %d repaired, %d ★", p,
						got.RepairedCells, got.Metrics.SuppressedCells, want.RepairedCells, want.Metrics.SuppressedCells)
				}
			}
		})
	}
}

// sameRelation reports whether a and b hold the same tuples, value for
// value, in the same order.
func sameRelation(a, b *relation.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !reflect.DeepEqual(a.Values(i), b.Values(i)) {
			return false
		}
	}
	return true
}

// dropsLast is a baseline partitioner that leaves the last rest row out of
// its one cluster.
type dropsLast struct{}

func (dropsLast) Name() string { return "drops-last" }

func (dropsLast) Partition(_ context.Context, _ *relation.Relation, rows []int, _ int) ([][]int, error) {
	return [][]int{rows[:len(rows)-1]}, nil
}

// TestAnonymizerMustCoverRest: Rk is rendered into the rows of R′ after
// RΣ, so a partitioner whose clusters miss a rest row fails the run
// instead of leaving that row all ★.
func TestAnonymizerMustCoverRest(t *testing.T) {
	rel := dataset.Census().Generate(50, 3)
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: 5, Anonymizer: dropsLast{}})
	if err == nil || !strings.Contains(err.Error(), "partitioned 49 of 50 remaining tuples") {
		t.Fatalf("err = %v, want the partitioner's coverage named", err)
	}
	if res.Output != nil {
		t.Fatal("a failed run published a relation")
	}
}
