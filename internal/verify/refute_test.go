package verify_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"diva"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/testutil"
	"diva/internal/verify"
)

// refutes reports whether the counting rule proves inst infeasible.
func refutes(t *testing.T, inst verify.Instance) bool {
	t.Helper()
	bounds, err := inst.Sigma.Bind(inst.Rel)
	if err != nil {
		t.Fatalf("%s: Bind: %v", inst, err)
	}
	return constraint.Refute(bounds, inst.Rel.Schema(), inst.K) != nil
}

// bareSearchColors runs the coloring search on inst's searchable
// constraints directly, without the driver's bind phase, and reports
// whether any strategy finds a coloring.
func bareSearchColors(t *testing.T, inst verify.Instance) bool {
	t.Helper()
	bounds, err := inst.Sigma.Bind(inst.Rel)
	if err != nil {
		t.Fatalf("%s: Bind: %v", inst, err)
	}
	schema := inst.Rel.Schema()
	bounds = slices.DeleteFunc(bounds, func(b *constraint.Bound) bool {
		return !slices.ContainsFunc(b.Attrs, func(a int) bool { return schema.Attr(a).Role == relation.QI })
	})
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		graph := search.BuildGraph(inst.Rel, bounds, cluster.Options{K: inst.K, Criterion: inst.Criterion()})
		if _, _, found := graph.Color(search.Options{Strategy: strat, Rng: rand.New(rand.NewPCG(1, 2))}); found {
			return true
		}
	}
	return false
}

// TestRefutationSound is the counting rule's soundness wall. Over a few
// thousand oracle-scale instances from all three generators (dense-conflict
// ones at 4–10 rows: refuted instances are infeasible, so the oracle
// enumerates every partition, and one of 12 rows at k = 2 takes it
// seconds):
//   - every refuted instance is infeasible for the brute-force oracle;
//   - the engine fails on it, and when the proof is what ended the run, the
//     bare coloring search fails too, so the search stays exercised on the
//     instances the driver no longer searches;
//   - the verdict is invariant under the four instance isomorphisms.
func TestRefutationSound(t *testing.T) {
	rng := testutil.Rng(t)
	const n = 3000
	refuted, proofsEndingRuns := 0, 0
	for id := 0; id < n; id++ {
		var inst verify.Instance
		switch id % 3 {
		case 0:
			inst = verify.RandomInstance(rng, id, true)
		case 1:
			inst = verify.RandomAdversarialInstance(rng, id)
		default:
			inst = verify.DenseConflictInstance(rng, id, 4+rng.IntN(7))
		}
		got := refutes(t, inst)
		for _, v := range []verify.Instance{
			verify.PermuteRows(inst, rng.Perm(inst.Rel.Len())),
			verify.PermuteColumns(inst, rng.Perm(inst.Rel.Schema().Len())),
			verify.RenameValues(inst, "~r"),
			verify.ReorderConstraints(inst, rng.Perm(len(inst.Sigma))),
		} {
			if refutes(t, v) != got {
				t.Errorf("%s: refuted = %v, but %v on the original", v, !got, got)
			}
		}
		if !got {
			continue
		}
		refuted++
		oracle, err := verify.BruteForce(inst.Rel, inst.Sigma, inst.K, verify.BruteForceOptions{Criterion: inst.Criterion()})
		if err != nil {
			t.Fatalf("%s: BruteForce: %v", inst, err)
		}
		if oracle.Feasible {
			t.Errorf("%s: refuted, but the oracle found a solution with %d stars", inst, oracle.Stars)
		}
		_, err = diva.AnonymizeContext(context.Background(), inst.Rel, inst.Sigma, diva.Options{
			K:          inst.K,
			Seed:       uint64(id),
			LDiversity: inst.LDiversity,
		})
		if !errors.Is(err, diva.ErrNoDiverseClustering) {
			t.Errorf("%s: refuted, but the engine returned %v", inst, err)
		}
		var ref *constraint.Refutation
		if errors.As(err, &ref) {
			proofsEndingRuns++
			if bareSearchColors(t, inst) {
				t.Errorf("%s: refuted (%v), but the bare search found a coloring", inst, ref)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	if refuted == 0 || proofsEndingRuns == 0 {
		t.Fatalf("%d of %d instances refuted, %d runs ended by a proof: the wall checks nothing", refuted, n, proofsEndingRuns)
	}
	t.Logf("%d of %d instances refuted, all oracle-infeasible and transform-invariant; %d runs ended by the proof, none colorable by the bare search",
		refuted, n, proofsEndingRuns)
}

// TestDenseCensusSigmaRefuted: every dense-conflict Σ over a census sample
// is refuted by its REGION core, whatever the number of padders.
func TestDenseCensusSigmaRefuted(t *testing.T) {
	const k = 10
	samples := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rel := dataset.CensusSized(400).Generate(400, seed)
		for padders := 0; padders <= 4; padders++ {
			sigma, ok := verify.DenseCensusSigma(rel, k, padders)
			if !ok {
				break
			}
			bounds, err := sigma.Bind(rel)
			if err != nil {
				t.Fatal(err)
			}
			r := constraint.Refute(bounds, rel.Schema(), k)
			if r == nil || r.Bound.Source.Key() != sigma[0].Key() {
				t.Errorf("seed %d, %d padders: proof %v, want the REGION cap %s", seed, padders, r, sigma[0])
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no census sample has a REGION core")
	}
	t.Logf("%d dense census Σ refuted", samples)
}
