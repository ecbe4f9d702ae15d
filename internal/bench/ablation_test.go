package bench

import (
	"math"
	"testing"
)

func TestAblationCandidateCapSmoke(t *testing.T) {
	table, err := AblationCandidateCap(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	// Accuracy must be non-decreasing in the budget, modulo small noise.
	prev := -1.0
	for _, row := range table.Rows {
		acc := row.Values[0]
		if math.IsNaN(acc) {
			t.Fatalf("cap %s failed", row.X)
		}
		if acc < prev-0.05 {
			t.Fatalf("accuracy dropped sharply with larger budget: %v after %v", acc, prev)
		}
		prev = acc
	}
}

func TestAblationParallelSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pantheon relation five times")
	}
	table, err := AblationParallel(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	for _, row := range table.Rows {
		if math.IsNaN(row.Values[0]) {
			t.Fatalf("%s failed", row.X)
		}
	}
}
