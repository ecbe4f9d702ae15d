package verify_test

import (
	"testing"

	"diva"
	"diva/internal/testutil"
	"diva/internal/verify"
)

// denseSuiteInstances builds the dense oracle wall's population: random
// micro-instances inside the completeness envelope (where the verdict
// provably matches the oracle) plus dense-conflict instances with heavily
// overlapping target pools (where the search backtracks most). The split is
// (14, 13) so 27 instances × 3 strategies × 3 shard counts = 243 runs.
func denseSuiteInstances(t *testing.T) ([]verify.Instance, int) {
	rng := testutil.Rng(t)
	var insts []verify.Instance
	for id := 0; id < 14; id++ {
		insts = append(insts, verify.RandomInstance(rng, id, false))
	}
	nRandom := len(insts)
	for id := 0; id < 13; id++ {
		insts = append(insts, verify.DenseConflictInstance(rng, id, 0))
	}
	return insts, nRandom
}

// TestDifferentialDenseConflict holds the engine to the brute-force oracle
// on dense-conflict instances as well as random ones, for every strategy
// and shard count: an engine success must validate, must not occur on a
// proven-infeasible instance and must not claim fewer stars than the proven
// optimum; inside the completeness envelope (the random instances) the
// feasibility verdict must equal the oracle's. Dense instances lie outside
// the envelope, so for them the contract is one-sided.
func TestDifferentialDenseConflict(t *testing.T) {
	insts, nRandom := denseSuiteInstances(t)
	rng := testutil.Rng(t)
	rng.Uint64() // decouple the seed stream from the instance stream
	runs, denseMatched, denseRuns, denseRefuted := 0, 0, 0, 0
	for idx, inst := range insts {
		oracle, err := verify.BruteForce(inst.Rel, inst.Sigma, inst.K, verify.BruteForceOptions{})
		if err != nil {
			t.Fatalf("%s: BruteForce: %v", inst, err)
		}
		envelope := idx < nRandom
		if !envelope && refutes(t, inst) {
			denseRefuted++
		}
		for _, strat := range allStrategies {
			for _, shards := range []int{1, 2, 4} {
				runs++
				res, ok := runDivaSharded(t, inst, strat, rng.Uint64(), shards)
				switch {
				case ok && !oracle.Feasible:
					t.Errorf("%s/%s/shards=%d: engine published output for a proven-infeasible instance",
						inst, strategyName(strat), shards)
				case ok && res.Metrics.SuppressedCells < oracle.Stars:
					t.Errorf("%s/%s/shards=%d: engine claims %d stars, below the proven optimum %d",
						inst, strategyName(strat), shards, res.Metrics.SuppressedCells, oracle.Stars)
				case envelope && ok != oracle.Feasible:
					t.Errorf("%s/%s/shards=%d: engine feasible=%v but oracle proved feasible=%v (inside the completeness envelope)",
						inst, strategyName(strat), shards, ok, oracle.Feasible)
				}
				if !envelope {
					denseRuns++
					if ok == oracle.Feasible {
						denseMatched++
					}
				}
			}
		}
		if t.Failed() {
			t.FailNow() // one broken instance is enough signal; don't flood
		}
	}
	if runs < 240 {
		t.Fatalf("harness ran %d runs, want ≥ 240", runs)
	}
	t.Logf("%d runs, no unsound success; %d/%d dense runs match the oracle's verdict; the counting rule refutes %d of %d dense instances",
		runs, denseMatched, denseRuns, denseRefuted, len(insts)-nRandom)
}

// TestDenseConflictGeneratorIsDense pins the generator's reason to exist:
// its instances must carry a materially higher conflict rate cf(Σ) than the
// envelope-respecting random generator.
func TestDenseConflictGeneratorIsDense(t *testing.T) {
	rng := testutil.Rng(t)
	var denseSum, denseN float64
	for id := 0; id < 20; id++ {
		inst := verify.DenseConflictInstance(rng, id, 0)
		if len(inst.Sigma) < 2 {
			continue
		}
		cf, err := diva.ConflictRate(inst.Rel, inst.Sigma)
		if err != nil {
			t.Fatalf("%s: ConflictRate: %v", inst, err)
		}
		denseSum += cf
		denseN++
	}
	if denseN == 0 {
		t.Fatal("generator produced no multi-constraint instances")
	}
	mean := denseSum / denseN
	if mean < 0.10 {
		t.Fatalf("dense-conflict generator mean cf(Σ) = %.3f, want ≥ 0.10 — not dense", mean)
	}
	t.Logf("mean cf(Σ) over %d dense instances: %.3f", int(denseN), mean)
}

// TestSearchOrderMetamorphic: the search explores assignments in an order
// set by constraint order and row order, but its verdict must not depend on
// that order. Permuting Σ constraint order, row order, and both at once are
// instance isomorphisms, so on every transform the engine must keep the
// oracle's (transform-invariant) verdict inside the completeness envelope
// (random instances), and the one-sided contract outside it (dense-conflict
// instances): no success on a proven-infeasible instance and no claim below
// the proven optimum.
func TestSearchOrderMetamorphic(t *testing.T) {
	rng := testutil.Rng(t)
	var insts []verify.Instance
	for id := 0; id < 12; id++ {
		insts = append(insts, verify.RandomInstance(rng, id, false))
	}
	nRandom := len(insts)
	for id := 0; id < 13; id++ {
		insts = append(insts, verify.DenseConflictInstance(rng, id, 0))
	}
	checked, denseRefuted := 0, 0
	for idx, inst := range insts {
		oracle, err := verify.BruteForce(inst.Rel, inst.Sigma, inst.K, verify.BruteForceOptions{})
		if err != nil {
			t.Fatalf("%s: BruteForce: %v", inst, err)
		}
		envelope := idx < nRandom
		if !envelope && refutes(t, inst) {
			denseRefuted++
		}
		variants := []verify.Instance{
			inst,
			verify.ReorderConstraints(inst, rng.Perm(len(inst.Sigma))),
			verify.PermuteRows(inst, rng.Perm(inst.Rel.Len())),
			verify.ReorderConstraints(verify.PermuteRows(inst, rng.Perm(inst.Rel.Len())), rng.Perm(len(inst.Sigma))),
		}
		strat := allStrategies[idx%len(allStrategies)]
		seed := rng.Uint64() // same seed across variants: only the transform differs
		for _, v := range variants {
			res, ok := runDiva(t, v, strat, seed)
			switch {
			case ok && !oracle.Feasible:
				t.Errorf("%s/%s: engine published output for a proven-infeasible instance", v, strategyName(strat))
			case ok && res.Metrics.SuppressedCells < oracle.Stars:
				t.Errorf("%s/%s: engine claims %d stars, below the proven optimum %d",
					v, strategyName(strat), res.Metrics.SuppressedCells, oracle.Stars)
			case envelope && ok != oracle.Feasible:
				t.Errorf("%s/%s: engine feasible=%v, oracle (transform-invariant) says %v",
					v, strategyName(strat), ok, oracle.Feasible)
			}
			checked++
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%d transformed runs, no unsound success, envelope verdicts invariant; the counting rule refutes %d of %d dense instances",
		checked, denseRefuted, len(insts)-nRandom)
}
