package core

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/relation"
)

func TestShardCount(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		want, n, expect int
	}{
		{0, 1000000, 1},      // disabled
		{1, 1000000, 1},      // below 2 behaves like disabled
		{2, 10, 2},           // explicit counts are honored unclamped
		{8, 100, 8},          // even on tiny relations
		{ShardsAuto, 100, 1}, // auto: too few rows
		{ShardsAuto, minShardRows - 1, 1},
		{-5, 100, 1}, // any negative means auto
	}
	for _, c := range cases {
		if got := shardCount(c.want, c.n); got != c.expect {
			t.Errorf("shardCount(%d, %d) = %d, want %d", c.want, c.n, got, c.expect)
		}
	}
	// Auto with plenty of rows: GOMAXPROCS when ≥ 2 workers are available,
	// monolithic otherwise.
	got := shardCount(ShardsAuto, procs*minShardRows)
	if procs >= 2 && got != procs {
		t.Errorf("shardCount(auto, %d) = %d, want %d", procs*minShardRows, got, procs)
	}
	if procs < 2 && got != 1 {
		t.Errorf("shardCount(auto, %d) = %d, want 1 on a single-proc host", procs*minShardRows, got)
	}
}

func shardTestRelation(t *testing.T, n int) *relation.Relation {
	t.Helper()
	schema := relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
	rel := relation.New(schema)
	rng := rand.New(rand.NewPCG(3, 5))
	vals := []string{"x", "y", "z", "w"}
	for i := 0; i < n; i++ {
		rel.MustAppendValues(vals[rng.IntN(len(vals))], vals[rng.IntN(len(vals))], vals[rng.IntN(len(vals))])
	}
	return rel
}

func TestPlanRestShards(t *testing.T) {
	rel := shardTestRelation(t, 40)
	rest := make([]int, 0, 30)
	for i := 0; i < 40; i++ {
		if i%4 != 0 { // leave some rows out, as a real clustering would
			rest = append(rest, i)
		}
	}
	k := 3
	shards := planRestShards(rel, rest, 4, k)
	if len(shards) != 4 {
		t.Fatalf("got %d shards, want 4", len(shards))
	}
	seen := map[int]bool{}
	total := 0
	for si, rows := range shards {
		if len(rows) < k {
			t.Errorf("shard %d has %d rows, want ≥ k=%d", si, len(rows), k)
		}
		total += len(rows)
		for _, r := range rows {
			if seen[r] {
				t.Errorf("row %d appears in more than one shard", r)
			}
			seen[r] = true
		}
	}
	if total != len(rest) {
		t.Fatalf("shards cover %d rows, want %d", total, len(rest))
	}
	for _, r := range rest {
		if !seen[r] {
			t.Errorf("rest row %d missing from the plan", r)
		}
	}
	// Balanced: sizes differ by at most one.
	min, max := len(shards[0]), len(shards[0])
	for _, rows := range shards {
		if len(rows) < min {
			min = len(rows)
		}
		if len(rows) > max {
			max = len(rows)
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced shards: sizes between %d and %d", min, max)
	}
	// QI-local: concatenating the shards yields rows in QI-lexicographic
	// order (ties broken by original order, so only check non-decreasing).
	qi := rel.Schema().QIIndexes()
	var flat []int
	for _, rows := range shards {
		flat = append(flat, rows...)
	}
	for i := 1; i < len(flat); i++ {
		a, b := rel.Row(flat[i-1]), rel.Row(flat[i])
		for _, at := range qi {
			if a[at] < b[at] {
				break
			}
			if a[at] > b[at] {
				t.Fatalf("rows %d,%d out of QI order", flat[i-1], flat[i])
			}
		}
	}

	// Deterministic.
	again := planRestShards(rel, rest, 4, k)
	for si := range shards {
		if len(again[si]) != len(shards[si]) {
			t.Fatalf("plan not deterministic: shard %d sized %d then %d", si, len(shards[si]), len(again[si]))
		}
		for i := range shards[si] {
			if again[si][i] != shards[si][i] {
				t.Fatalf("plan not deterministic at shard %d index %d", si, i)
			}
		}
	}

	// Too few rows for the requested count: the k-floor shrinks the plan.
	small := planRestShards(rel, rest[:5], 4, k)
	if len(small) != 1 {
		t.Fatalf("5 rows at k=3: got %d shards, want 1", len(small))
	}
	if len(small[0]) != 5 {
		t.Fatalf("single shard has %d rows, want 5", len(small[0]))
	}
	// Fewer than k rows still yields one (undersized) shard; the partitioner
	// decides what to do with it. Empty rest yields no shards.
	if got := planRestShards(rel, rest[:2], 4, k); len(got) != 1 || len(got[0]) != 2 {
		t.Fatalf("2 rows at k=3: got %v", got)
	}
	if got := planRestShards(rel, nil, 4, k); len(got) != 0 {
		t.Fatalf("empty rest: got %d shards, want 0", len(got))
	}
}

// BenchmarkPlanRestShards plans two shards over the rest rows of the
// census-60k sharded workload: a 60,000-row census sample whose eight
// proportional constraints (UpperFrac 0.9) are colored first, so the plan
// sees exactly the rows the baseline phase receives.
func BenchmarkPlanRestShards(b *testing.B) {
	const rows, k = 60000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 1)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: 8, K: k, Rng: rand.New(rand.NewPCG(0x51a3, 0x51a3)), UpperFrac: 0.9,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Anonymize(context.Background(), rel, sigma, Options{K: k, Rng: rand.New(rand.NewPCG(1, 2)), Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	used := res.Clustering.RowSet(rel.Len())
	rest := make([]int, 0, rel.Len()-used.Len())
	for i := 0; i < rel.Len(); i++ {
		if !used.Contains(i) {
			rest = append(rest, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if shards := planRestShards(rel, rest, 2, k); len(shards) != 2 {
			b.Fatalf("planned %d shards, want 2", len(shards))
		}
	}
}
