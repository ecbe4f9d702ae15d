package anon

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/dataset"
)

// BenchmarkPartitioners times each partitioner over census samples up to the
// full published size (dataset.CensusRows); k-member and OKA run only on the
// small ones. Mondrian also runs on Pantheon (11,341 rows, 6,018 distinct
// QI vectors) and pop-syn (100,000 rows, 26,573), where grouping rows into
// vectors compresses far less than on the census (299,285 rows, 12,544).
func BenchmarkPartitioners(b *testing.B) {
	inputs := []struct {
		name string
		gen  *dataset.Generator
		rows int
	}{
		{"", dataset.Census(), 1000},
		{"", dataset.Census(), 5000},
		{"", dataset.Census(), 60000},
		{"", dataset.Census(), dataset.CensusRows},
		{"pantheon-", dataset.Pantheon(), dataset.PantheonRows},
		{"pop-syn-", dataset.PopSyn(dataset.Uniform), dataset.PopSynRows},
	}
	for _, in := range inputs {
		rows := in.rows
		rel := in.gen.Generate(rows, 7)
		all := make([]int, rel.Len())
		for i := range all {
			all[i] = i
		}
		var ps []Partitioner
		if rows <= 5000 && in.name == "" {
			// k-member and OKA take seconds per call from 60,000 rows up.
			ps = append(ps, &KMember{Rng: rand.New(rand.NewPCG(1, 2))}, &OKA{Rng: rand.New(rand.NewPCG(1, 2))})
		}
		ps = append(ps, &Mondrian{}, &Mondrian{Parallelism: 1})
		for _, p := range ps {
			name := p.Name()
			if m, ok := p.(*Mondrian); ok && m.Parallelism == 1 {
				name += "-seq"
			}
			b.Run(fmt.Sprintf("%s/%srows=%d", name, in.name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					parts, err := p.Partition(context.Background(), rel, all, 10)
					if err != nil {
						b.Fatal(err)
					}
					if len(parts) == 0 {
						b.Fatal("no partitions")
					}
				}
			})
		}
	}
}
