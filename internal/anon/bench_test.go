package anon

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/dataset"
)

func BenchmarkPartitioners(b *testing.B) {
	for _, rows := range []int{1000, 5000, 60000} {
		rel := dataset.Census().Generate(rows, 7)
		all := make([]int, rel.Len())
		for i := range all {
			all[i] = i
		}
		var ps []Partitioner
		if rows <= 5000 {
			// k-member and OKA take seconds per call at 60,000 rows.
			ps = append(ps, &KMember{Rng: rand.New(rand.NewPCG(1, 2)), SampleCap: 256}, &OKA{Rng: rand.New(rand.NewPCG(1, 2))})
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

func BenchmarkKMemberExactVsSampled(b *testing.B) {
	rel := dataset.Census().Generate(2000, 7)
	all := make([]int, rel.Len())
	for i := range all {
		all[i] = i
	}
	for _, cap := range []int{0, 64, 512} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				km := &KMember{Rng: rand.New(rand.NewPCG(1, 2)), SampleCap: cap}
				if _, err := km.Partition(context.Background(), rel, all, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
