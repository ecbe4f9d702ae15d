package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ parallelism, rows, want int }{
		{0, 2*Grain - 1, 1}, // below the grain: inline at any setting
		{4, 2*Grain - 1, 1},
		{4, 2 * Grain, 2},
		{0, 10 * Grain, 4}, // 0 means GOMAXPROCS
		{-1, 10 * Grain, 4},
		{8, 10 * Grain, 4}, // clamped to GOMAXPROCS
		{1, 10 * Grain, 1},
		{3, 10 * Grain, 3},
		{2, 0, 1},
	} {
		if got := Workers(c.parallelism, c.rows); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.parallelism, c.rows, got, c.want)
		}
	}
}

func TestDoRunsEveryWorkerOnce(t *testing.T) {
	for _, w := range []int{1, 2, 5} {
		seen := make([]atomic.Int32, w)
		Do(w, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("Do(%d): worker %d ran %d times", w, i, n)
			}
		}
	}
}
