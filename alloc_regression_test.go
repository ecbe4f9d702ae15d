package diva_test

import (
	"math/rand/v2"
	"runtime"
	"testing"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/search"
	"diva/internal/trace"
)

// TestColorPhaseAllocsWithoutLearning pins the allocation budget of the
// BenchmarkColorPhase workload when nogood learning is off. The conflict
// attribution the learner consumes (per-visit blocker counts, pool-neighbor
// sets, assignment fingerprints) is maintained only when a tracer or a
// learner asks for it, so a plain Color call must cost exactly what it did
// before learning existed: 665 allocs for MinChoice and 376 for MaxFanOut —
// the pre-learning baselines. Basic is pinned at 408 (was 406): its node
// selection became state-pure (hashing the colored-set fingerprint instead
// of consuming the shared RNG stream) so that learning-driven backjumps
// cannot perturb replay determinism, and the fingerprint lookup costs two
// allocations per run at this workload. Any growth beyond these pins means
// learning machinery leaked onto the learning-off path.
func TestColorPhaseAllocsWithoutLearning(t *testing.T) {
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
		search.Basic:     408,
		search.MinChoice: 665,
		search.MaxFanOut: 376,
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
			t.Errorf("%s: %d allocs/op with learning off, budget %d — learning machinery leaked onto the chronological path",
				strat, got, pins[strat])
		}
	}
}

// TestColorPhaseAllocsWithFlightRecorder pins the cost of live telemetry on
// the same workload: attaching a flight recorder as the search tracer (the
// ops registry attaches one to every run, subscriber or not) costs exactly 6
// allocs/op over the untraced pins — the recorder itself, its preallocated
// ring, and the conflict-attribution state a tracer activates. The budget is
// deliberately independent of event volume: FlightRecorder.Record writes
// into the ring by value, so thousands of trace events add zero allocations.
// Growth here means per-event allocation crept into the hot tracing path.
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
		search.Basic:     414,
		search.MinChoice: 671,
		search.MaxFanOut: 382,
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
