package diva_test

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/search"
	"diva/internal/trace"
	"diva/internal/verify"
)

// allocMargin is the slack every pin below leaves over the allocs/op
// measured when it was set (GOMAXPROCS 1, go1.24, linux/amd64): repeated
// measurements differ by at most one allocation, so a few more mean a
// regression, not noise.
const allocMargin = 8

// TestColorPhaseAllocs pins the allocation budget of the untraced
// BenchmarkColorPhase workload. Blocker attribution is maintained only when
// a tracer asks for it, so growth beyond these pins means tracing state
// leaked onto the untraced path, or candidate enumeration started
// allocating more than the clusterings it returns. Measured: Basic 246,
// MinChoice 230, MaxFanOut 216 allocs/op.
func TestColorPhaseAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pinning at benchmark scale")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	// sync.Pool keeps per-P caches, so the pinned counts hold only on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rel := dataset.Census().Generate(2000, 42)
	// Same workload as BenchmarkColorPhase: census relation, benchSigma's
	// generator seed, K = 10.
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: 8,
		K:     10,
		Rng:   rand.New(rand.NewPCG(3, 14)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[search.Strategy]int64{
		search.Basic:     246 + allocMargin,
		search.MinChoice: 230 + allocMargin,
		search.MaxFanOut: 216 + allocMargin,
	}
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph := search.BuildGraph(rel, bounds, cluster.Options{K: 10})
				if _, _, found := graph.Color(search.Options{
					Strategy: strat,
					Rng:      rand.New(rand.NewPCG(9, 7)),
				}); !found {
					b.Fatal("no coloring")
				}
			}
		})
		if got := res.AllocsPerOp(); got > pins[strat] {
			t.Errorf("%s: %d allocs/op untraced, budget %d — tracing state or enumeration scratch leaked onto the untraced path",
				strat, got, pins[strat])
		}
	}
}

// TestColorPhaseAllocsWithFlightRecorder pins the cost of live telemetry on
// the same workload: attaching a flight recorder as the search tracer (the
// ops registry attaches one to every run, subscriber or not) costs the
// recorder itself, its ring, which grows on demand by doubling up to its
// capacity, and the blocker-attribution state a tracer activates: 11 or 12
// allocs/op over the untraced counts. Measured: Basic 257, MinChoice 242,
// MaxFanOut 227 allocs/op. The budget is deliberately independent of event
// volume: FlightRecorder.Record writes into the ring by value, so thousands
// of trace events on a full ring add zero allocations. Growth here means
// per-event allocation crept into the hot tracing path.
func TestColorPhaseAllocsWithFlightRecorder(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pinning at benchmark scale")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	// sync.Pool keeps per-P caches, so the pinned counts hold only on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rel := dataset.Census().Generate(2000, 42)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: 8,
		K:     10,
		Rng:   rand.New(rand.NewPCG(3, 14)),
	})
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[search.Strategy]int64{
		search.Basic:     257 + allocMargin,
		search.MinChoice: 242 + allocMargin,
		search.MaxFanOut: 227 + allocMargin,
	}
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := trace.NewFlightRecorder(trace.DefaultFlightCapacity)
				graph := search.BuildGraph(rel, bounds, cluster.Options{K: 10})
				if _, _, found := graph.Color(search.Options{
					Strategy: strat,
					Rng:      rand.New(rand.NewPCG(9, 7)),
					Tracer:   rec,
				}); !found {
					b.Fatal("no coloring")
				}
				if rec.Seen() == 0 {
					b.Fatal("flight recorder saw no events")
				}
			}
		})
		if got := res.AllocsPerOp(); got > pins[strat] {
			t.Errorf("%s: %d allocs/op with a flight recorder attached, budget %d — per-event allocation crept into the tracing path",
				strat, got, pins[strat])
		}
	}
}

// TestAnonymizeAllocs pins the allocation budget of whole core.Anonymize
// runs at micro-batch scale: 16 oracle-sized verify.RandomInstance draws
// with their criteria, MinChoice, one run each per op. Every row pass of
// such a run is far below the split grain (par.Grain), so it must run on
// the caller and allocate nothing for the split: growth here means a pass
// builds its worker tables, closures or goroutines even when it does not
// split. Measured: 2,111 allocs/op before the passes could split, 2,098
// after (the pool scan no longer allocates a histogram it does not use).
func TestAnonymizeAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pinning at benchmark scale")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	// sync.Pool keeps per-P caches, so the pinned count holds only on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewPCG(20210323, 0x6d1c))
	insts := make([]verify.Instance, 16)
	for i := range insts {
		insts[i] = verify.RandomInstance(rng, i, true)
	}
	const pin = 2111 + allocMargin
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, inst := range insts {
				_, _ = core.Anonymize(context.Background(), inst.Rel, inst.Sigma, core.Options{
					K:         inst.K,
					Strategy:  search.MinChoice,
					Rng:       rand.New(rand.NewPCG(uint64(j), 1)),
					Criterion: inst.Criterion(),
				})
			}
		}
	})
	if got := res.AllocsPerOp(); got > pin {
		t.Errorf("%d allocs/op over 16 micro-batch runs, budget %d — a row pass below the split grain allocates for a split it does not make",
			got, pin)
	}
}
