package core_test

import (
	"context"
	"runtime"
	"testing"

	"diva/internal/anon"
	"diva/internal/core"
	"diva/internal/dataset"
)

// BenchmarkSuppressGeneralize renders a census sample's Mondrian partition
// (every row in one k=10 QI-group or another), the suppress step of the
// baseline phase: on one worker (GOMAXPROCS 1) and on all cores.
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
	for _, w := range []struct {
		name  string
		procs int
	}{{"1", 1}, {"all", runtime.GOMAXPROCS(0)}} {
		b.Run("workers="+w.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out := core.SuppressGeneralize(rel, parts, nil); out.Len() != rel.Len() {
					b.Fatalf("rendered %d of %d rows", out.Len(), rel.Len())
				}
			}
		})
	}
}
