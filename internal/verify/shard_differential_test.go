package verify_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"diva"
	"diva/internal/testutil"
	"diva/internal/verify"
)

// runDivaSharded is runDiva through the shard-and-merge engine: explicit
// shard counts are honored even on micro-instances, so the sharded code
// paths (component decomposition, concurrent coloring, QI-local rest
// shards, cross-shard integrate) are exercised for real.
func runDivaSharded(t *testing.T, inst verify.Instance, strat diva.Strategy, seed uint64, shards int) (*diva.Result, bool) {
	t.Helper()
	res, err := diva.AnonymizeContext(context.Background(), inst.Rel, inst.Sigma, diva.Options{
		K:             inst.K,
		Strategy:      strat,
		Seed:          seed,
		MaxCandidates: 256,
		LDiversity:    inst.LDiversity,
		Shards:        shards,
	})
	if err != nil {
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Errorf("%s/%s/shards=%d: unexpected engine error class: %v", inst, strategyName(strat), shards, err)
		}
		return nil, false
	}
	rep := verify.ValidateOutput(inst.Rel, res.Output, inst.Sigma, inst.K, verify.Options{
		Criterion:  inst.Criterion(),
		CheckStars: true,
		Stars:      res.Metrics.SuppressedCells,
	})
	if !rep.OK() {
		t.Errorf("%s/%s/shards=%d: published output violates invariants: %v", inst, strategyName(strat), shards, rep.Err())
	}
	return res, true
}

// TestDifferentialSharded puts the shard-and-merge engine under the same
// oracle contract as the monolithic run: on every random micro-instance,
// for shard counts 2 and 4, an engine success must validate against the
// independent checker and never beat the brute-force optimum, and the
// feasibility verdict must agree with the oracle. The verdict assertion is
// strict because component-wise search is no more pruned than the monolithic
// one (each component's search sees the same candidate clusters, minus the
// global rest ≥ k Accept hook, whose violations trigger a joint
// re-coloring), so the sharded engine succeeds whenever the monolithic engine
// does — and the monolithic engine matches the oracle within the
// completeness envelope (see TestDifferentialAgainstOracle).
func TestDifferentialSharded(t *testing.T) {
	rng := testutil.Rng(t)
	runs := 0
	for id := 0; id < 40; id++ {
		inst := verify.RandomInstance(rng, id, false)
		oracle, err := verify.BruteForce(inst.Rel, inst.Sigma, inst.K, verify.BruteForceOptions{})
		if err != nil {
			t.Fatalf("%s: BruteForce: %v", inst, err)
		}
		for _, strat := range allStrategies {
			for _, shards := range []int{2, 4} {
				runs++
				seed := rng.Uint64()
				res, ok := runDivaSharded(t, inst, strat, seed, shards)
				if ok != oracle.Feasible {
					t.Errorf("%s/%s/shards=%d: engine feasible=%v but oracle proved feasible=%v (optimum %d stars)",
						inst, strategyName(strat), shards, ok, oracle.Feasible, oracle.Stars)
					continue
				}
				if ok && res.Metrics.SuppressedCells < oracle.Stars {
					t.Errorf("%s/%s/shards=%d: engine claims %d stars, below the proven optimum %d",
						inst, strategyName(strat), shards, res.Metrics.SuppressedCells, oracle.Stars)
				}
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("sharded differential: %d runs over 40 instances", runs)
}

// TestDifferentialShardedDeterministic reruns a feasible sharded
// configuration with identical options and requires byte-identical output.
func TestDifferentialShardedDeterministic(t *testing.T) {
	rng := testutil.Rng(t)
	checked := 0
	for id := 0; id < 40 && checked < 8; id++ {
		inst := verify.RandomInstance(rng, id, false)
		seed := rng.Uint64()
		render := func() ([]byte, bool) {
			res, ok := runDivaSharded(t, inst, diva.MaxFanOut, seed, 3)
			if !ok {
				return nil, false
			}
			var buf bytes.Buffer
			if err := diva.WriteCSV(&buf, res.Output); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			return buf.Bytes(), true
		}
		first, ok := render()
		if !ok {
			continue
		}
		second, _ := render()
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: sharded output not deterministic for fixed seed and shard count", inst)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no feasible instances found to check determinism")
	}
}
