package core

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"diva/internal/relation"
)

// referencePlan is the comparison-sort shard plan the radix sort replaced,
// kept verbatim as the differential oracle: a stable sort of the rest rows
// with a closure comparing QI code vectors, then the same balanced chunking.
func referencePlan(rel *relation.Relation, rest []int, want, k int) [][]int {
	if max := len(rest) / k; max < want {
		want = max
	}
	if want < 1 {
		want = 1
	}
	sorted := append([]int(nil), rest...)
	qi := rel.Schema().QIIndexes()
	sort.SliceStable(sorted, func(i, j int) bool {
		ri, rj := rel.Row(sorted[i]), rel.Row(sorted[j])
		for _, a := range qi {
			if ri[a] != rj[a] {
				return ri[a] < rj[a]
			}
		}
		return false
	})
	shards := make([][]int, 0, want)
	base, extra := len(sorted)/want, len(sorted)%want
	at := 0
	for s := 0; s < want; s++ {
		size := base
		if s < extra {
			size++
		}
		if size == 0 {
			continue
		}
		shards = append(shards, sorted[at:at+size])
		at += size
	}
	return shards
}

// planRelation draws a relation whose QI columns are interleaved with a
// sensitive one, hold ★ cells, repeat whole QI vectors (small domains), and
// include a domain interned far beyond the rows that use it.
func planRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
		relation.Attribute{Name: "B", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "C", Role: relation.QI},
	))
	for v := 0; v < 2000; v++ {
		rel.Dict(2).Code(strconv.Itoa(v))
	}
	aVals, cVals := 1+rng.IntN(4), 1+rng.IntN(3)
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			"a"+strconv.Itoa(rng.IntN(aVals)),
			"s"+strconv.Itoa(rng.IntN(3)),
			strconv.Itoa(rng.IntN(1+rng.IntN(2000))),
			"c"+strconv.Itoa(rng.IntN(cVals)),
		)
		for _, a := range []int{0, 2, 3} {
			if rng.IntN(10) == 0 {
				rel.Suppress(i, a)
			}
		}
	}
	return rel
}

// TestPlanRestShardsMatchesReference differentially checks the radix-sorted
// shard plan against the comparison sort it replaced: identical shards,
// rows in identical order, over random relations, shuffled rest subsets and
// every shard count and k.
func TestPlanRestShardsMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x51a7))
		n := 1 + rng.IntN(400)
		rel := planRelation(rng, n)
		var rest []int
		for r := 0; r < n; r++ {
			if rng.IntN(4) > 0 {
				rest = append(rest, r)
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
		}
		for _, want := range []int{1, 2, 3, 7} {
			for _, k := range []int{1, 2, 10} {
				got, ref := planRestShards(rel, rest, want, k), referencePlan(rel, rest, want, k)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("trial %d |rest|=%d want=%d k=%d: plan diverged from the reference\ngot:  %v\nwant: %v",
						trial, len(rest), want, k, got, ref)
				}
			}
		}
	}
}
