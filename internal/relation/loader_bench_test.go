package relation_test

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"diva/internal/dataset"
	"diva/internal/relation"
	"diva/internal/verify"
)

// BenchmarkReadAnnotatedCSV loads annotated CSV of three shapes: an
// oracle-scale instance (about 10 rows × 3 attributes, what the
// micro-batch workload parses 20,000 of), a 400-row census sample (the
// dense-conflict shape) and the full census relation of the paper's
// largest experiment, which the loader decodes in parallel blocks.
func BenchmarkReadAnnotatedCSV(b *testing.B) {
	shapes := []struct {
		name string
		rel  func() *relation.Relation
	}{
		{"micro-batch", func() *relation.Relation {
			return verify.RandomInstance(rand.New(rand.NewPCG(1, 2)), 0, false).Rel
		}},
		{"dense-conflict", func() *relation.Relation {
			return dataset.CensusSized(400).Generate(400, 1)
		}},
		{"census-300k", func() *relation.Relation {
			return dataset.CensusSized(dataset.CensusRows).Generate(dataset.CensusRows, 1)
		}},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			rel := shape.rel()
			var buf bytes.Buffer
			if err := relation.WriteAnnotatedCSV(&buf, rel); err != nil {
				b.Fatal(err)
			}
			data := buf.Bytes()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := relation.ReadAnnotatedCSV(bytes.NewReader(data))
				if err != nil || got.Len() != rel.Len() {
					b.Fatalf("read %v rows: %v", got, err)
				}
			}
		})
	}
}
