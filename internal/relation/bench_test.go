package relation

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"
)

func benchRelation(n int) *Relation {
	rng := rand.New(rand.NewPCG(1, 2))
	r := New(MustSchema(
		Attribute{Name: "A", Role: QI},
		Attribute{Name: "B", Role: QI},
		Attribute{Name: "C", Role: QI, Kind: Numeric},
		Attribute{Name: "D", Role: QI},
		Attribute{Name: "S", Role: Sensitive},
	))
	for i := 0; i < n; i++ {
		r.MustAppendValues(
			"a"+strconv.Itoa(rng.IntN(8)),
			"b"+strconv.Itoa(rng.IntN(20)),
			strconv.Itoa(rng.IntN(100)),
			"d"+strconv.Itoa(rng.IntN(5)),
			"s"+strconv.Itoa(rng.IntN(10)),
		)
	}
	return r
}

func BenchmarkAppendValues(b *testing.B) {
	r := New(MustSchema(
		Attribute{Name: "A", Role: QI},
		Attribute{Name: "B", Role: QI},
	))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.MustAppendValues("a"+strconv.Itoa(i%64), "b"+strconv.Itoa(i%128))
	}
}

func BenchmarkQIGroups(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		r := benchRelation(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := r.QIGroups(); len(got) == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}

func BenchmarkDistinctCount(b *testing.B) {
	r := benchRelation(50000)
	qi := r.Schema().QIIndexes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.DistinctCount(qi) == 0 {
			b.Fatal("no distinct values")
		}
	}
}

func BenchmarkMatchingRows(b *testing.B) {
	r := benchRelation(50000)
	code, _ := r.Dict(0).Lookup("a3")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.MatchingRows([]int{0}, []uint32{code})) == 0 {
			b.Fatal("no matches")
		}
	}
}

func BenchmarkValueFrequencies(b *testing.B) {
	r := benchRelation(50000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.ValueFrequencies(1)) == 0 {
			b.Fatal("no frequencies")
		}
	}
}
