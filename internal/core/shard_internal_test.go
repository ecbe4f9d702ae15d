package core

import (
	"runtime"
	"testing"
)

// TestShardCount pins how Options.Shards resolves against the relation
// size into a component-wise or a joint run.
func TestShardCount(t *testing.T) {
	cases := []struct {
		want, n int
		expect  bool
	}{
		{0, 1000000, false},      // disabled
		{1, 1000000, false},      // below 2 behaves like disabled
		{2, 10, true},            // explicit counts are honored unclamped
		{8, 100, true},           // even on tiny relations
		{ShardsAuto, 100, false}, // auto: too few rows
		{ShardsAuto, 2*minShardRows - 1, false},
		{-5, 100, false}, // any negative means auto
	}
	for _, c := range cases {
		if got := sharded(c.want, c.n); got != c.expect {
			t.Errorf("sharded(%d, %d) = %v, want %v", c.want, c.n, got, c.expect)
		}
	}
	// Auto with plenty of rows: component-wise when ≥ 2 workers are
	// available, joint otherwise.
	procs := runtime.GOMAXPROCS(0)
	if got := sharded(ShardsAuto, procs*minShardRows); got != (procs >= 2) {
		t.Errorf("sharded(auto, %d) = %v with GOMAXPROCS %d", procs*minShardRows, got, procs)
	}
}
