package cluster

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/par"
)

// TestSplitEnumeratorsMatchOneWorker builds the enumerators of a 40,000-row
// census sample under the bench's proportional Σ (k=10, UpperFrac 0.9) on
// 2 and 4 workers and across GOMAXPROCS (raised to 4): each must hold the
// pool, key table and QI-similarity order the one-worker build gives, and
// enumerate the same candidates.
func TestSplitEnumeratorsMatchOneWorker(t *testing.T) {
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
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	want := NewEnumerators(rel, bounds, Options{K: k, Parallelism: 1})
	pooled := 0
	for _, e := range want {
		pooled += e.TargetSize()
	}
	if pooled < 4*par.Grain {
		t.Fatalf("the pools hold %d rows, too few to split four ways", pooled)
	}
	for _, p := range []int{2, 4, 0} {
		got := NewEnumerators(rel, bounds, Options{K: k, Parallelism: p})
		for i, e := range got {
			w := want[i]
			if e.b != w.b || !reflect.DeepEqual(e.pool, w.pool) || !reflect.DeepEqual(e.keys, w.keys) || !reflect.DeepEqual(e.order, w.order) {
				t.Fatalf("parallelism %d, bound %d (%s): enumerator differs from one worker's", p, i, bounds[i])
			}
			if !reflect.DeepEqual(e.Candidates(nil, nil), w.Candidates(nil, nil)) {
				t.Fatalf("parallelism %d, bound %d (%s): candidates differ from one worker's", p, i, bounds[i])
			}
		}
	}
}
