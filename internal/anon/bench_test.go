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
// small ones.
func BenchmarkPartitioners(b *testing.B) {
	for _, rows := range []int{1000, 5000, 60000, dataset.CensusRows} {
		rel := dataset.Census().Generate(rows, 7)
		all := make([]int, rel.Len())
		for i := range all {
			all[i] = i
		}
		var ps []Partitioner
		if rows <= 5000 {
			// k-member and OKA take seconds per call from 60,000 rows up.
			ps = append(ps, &KMember{Rng: rand.New(rand.NewPCG(1, 2))}, &OKA{Rng: rand.New(rand.NewPCG(1, 2))})
		}
		ps = append(ps, &Mondrian{}, &Mondrian{Parallelism: 1})
		for _, p := range ps {
			name := p.Name()
			if m, ok := p.(*Mondrian); ok && m.Parallelism == 1 {
				name += "-seq"
			}
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
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
