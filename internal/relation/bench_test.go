package relation

import (
	"math/rand/v2"
	"strconv"
	"sync"
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

// wideRelation returns n rows as wide as the census profile: 40
// attributes, the first 5 of them QI. Grouping cost at this width is
// dominated by reading 160-byte rows, which benchRelation's five columns
// hide.
func wideRelation(n int) *Relation {
	const width, qi = 40, 5
	attrs := make([]Attribute, width)
	for a := range attrs {
		attrs[a] = Attribute{Name: "A" + strconv.Itoa(a), Role: Sensitive}
		if a < qi {
			attrs[a].Role = QI
		}
	}
	r := New(MustSchema(attrs...))
	r.Grow(n)
	card := []int{9, 16, 7, 15, 6} // QI domains; the rest have 50 values
	rng := rand.New(rand.NewPCG(3, 4))
	vals := make([]string, width)
	for i := 0; i < n; i++ {
		for a := range vals {
			d := 50
			if a < qi {
				d = card[a]
			}
			vals[a] = strconv.Itoa(rng.IntN(d))
		}
		r.MustAppendValues(vals...)
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

// wide300k is built once per process: b.Run calls a sub-benchmark's body
// again for every b.N it tries.
var wide300k = sync.OnceValue(func() *Relation { return wideRelation(300000) })

func BenchmarkQIGroups(b *testing.B) {
	cases := []struct {
		name string
		rel  func() *Relation
	}{
		{"1000", func() *Relation { return benchRelation(1000) }},
		{"10000", func() *Relation { return benchRelation(10000) }},
		{"100000", func() *Relation { return benchRelation(100000) }},
		{"wide-300000", wide300k},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := c.rel()
			b.ResetTimer()
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
	b.ResetTimer()
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
