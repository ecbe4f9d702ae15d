// Package par holds the engine's rule for its Parallelism setting (Procs),
// which bounds Mondrian's recursion, the Σ-component fan-out and the
// data-parallel row passes — rendering R′, building enumerators, the
// Σ-wide pool and count scans, and the group-by kernel
// (relation.Distinct), which builds the distinct QI vectors Mondrian
// partitions. A row pass resolves its worker count with Workers, from the
// setting and its size in rows, and runs inline on its caller when that
// count is 1, so a small pass starts no goroutine and allocates nothing
// for the split. Each worker owns a disjoint, precomputed share of the
// pass, and the caller combines the shares in worker order, so the result
// does not depend on the worker count or on scheduling.
package par

import (
	"runtime"
	"sync"
)

// Grain is the fewest rows a worker of a split pass is handed: a pass over
// fewer than 2·Grain rows runs on its caller. At a few tens of nanoseconds
// per row, a worker's share then costs far more than starting it.
const Grain = 8192

// Procs resolves a Parallelism setting to a worker count: 0 (or below)
// means GOMAXPROCS, and values above GOMAXPROCS are clamped to it.
func Procs(parallelism int) int {
	procs := runtime.GOMAXPROCS(0)
	if parallelism <= 0 || parallelism > procs {
		return procs
	}
	return parallelism
}

// Workers resolves a Parallelism setting against a pass over rows rows: the
// number of workers to split it among, at most Procs(parallelism). Every
// worker gets at least Grain rows, so the result is 1 below 2·Grain rows.
func Workers(parallelism, rows int) int {
	return max(1, min(Procs(parallelism), rows/Grain))
}

// Do runs f(0), …, f(w−1) concurrently, f(0) on the caller, and returns
// when all have returned. Callers with w == 1 call their pass directly
// instead, so the inline path builds no closure.
func Do(w int, f func(i int)) {
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	f(0)
	wg.Wait()
}
