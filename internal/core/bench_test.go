package core_test

import (
	"context"
	"testing"

	"diva/internal/anon"
	"diva/internal/core"
	"diva/internal/dataset"
)

// BenchmarkSuppressGeneralize renders a census sample's Mondrian partition
// (every row in one k=10 QI-group or another), the suppress step of the
// baseline phase.
func BenchmarkSuppressGeneralize(b *testing.B) {
	rel := dataset.CensusSized(60000).Generate(60000, 1)
	rows := make([]int, rel.Len())
	for i := range rows {
		rows[i] = i
	}
	parts, err := (&anon.Mondrian{}).Partition(context.Background(), rel, rows, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := core.SuppressGeneralize(rel, parts, nil); out.Len() != rel.Len() {
			b.Fatalf("rendered %d of %d rows", out.Len(), rel.Len())
		}
	}
}
