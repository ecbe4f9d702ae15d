package verify_test

import (
	"context"
	"strings"
	"testing"

	"diva"
	"diva/internal/verify"
)

// parseFuzzInstance decodes a fuzzed (annotated CSV, constraint text, k)
// triple into a micro relation and constraint set, skipping inputs that are
// malformed (the parsers' own error paths are covered by their unit and fuzz
// tests) or beyond micro scale.
func parseFuzzInstance(t *testing.T, csvText, sigmaText string, k int) (*diva.Relation, diva.Constraints) {
	t.Helper()
	if len(csvText) > 1<<12 || len(sigmaText) > 1<<9 {
		t.Skip("oversized input")
	}
	rel, err := diva.ReadAnnotatedCSV(strings.NewReader(csvText))
	if err != nil {
		t.Skip("unparseable relation")
	}
	if rel.Len() > 48 || rel.Schema().Len() > 8 {
		t.Skip("beyond micro scale")
	}
	sigma, err := diva.ParseConstraints(strings.NewReader(sigmaText))
	if err != nil {
		t.Skip("unparseable constraints")
	}
	if k < 1 || k > 16 {
		t.Skip("k out of range")
	}
	return rel, sigma
}

// FuzzAnonymizeEndToEnd drives the whole pipeline — annotated-CSV parse,
// constraint parse, Anonymize under a fuzzed strategy and seed — and holds
// the engine to its output contract: any error is a legitimate verdict, but
// a published relation must pass the independent invariant checker, and on
// oracle-sized inputs must also respect the exact solver's verdict and
// optimum. The checked-in seed corpus under testdata/fuzz includes
// dense-conflict instances from DenseConflictInstance, so the
// coverage-guided search starts where the coloring backtracks most.
func FuzzAnonymizeEndToEnd(f *testing.F) {
	f.Add("GEN:qi,CTY:qi,DIAG:sensitive\nM,Vancouver,flu\nM,Vancouver,cold\nF,Toronto,flu\nF,Toronto,cold\n",
		"CTY[Vancouver], 1, 2\n", 2, uint64(1))
	f.Add("GEN:qi,AGE:qi:numeric,DIAG:sensitive\nM,30,flu\nF,40,cold\nM,30,asthma\nF,44,flu\n",
		"GEN[M] DIAG[flu], 0, 1\n# comment\nAGE[30], 0, 2\n", 2, uint64(7))
	f.Add("CTY:qi,SSN:id,DIAG:sensitive\nVancouver,a,flu\nVancouver,b,flu\nToronto,c,cold\n",
		"DIAG[flu], 2, 2\n", 1, uint64(3))
	f.Add("GEN:qi,DIAG:sensitive\nM,flu\n", "GEN[M], 2, 3\n", 1, uint64(0))

	f.Fuzz(func(t *testing.T, csvText, sigmaText string, k int, seed uint64) {
		rel, sigma := parseFuzzInstance(t, csvText, sigmaText, k)
		res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{
			K:        k,
			Strategy: allStrategies[seed%3],
			Seed:     seed,
			MaxSteps: 200_000,
		})
		if err != nil {
			return // an error verdict is fine; panics and bad outputs are the bugs
		}
		rep := verify.ValidateOutput(rel, res.Output, sigma, k, verify.Options{
			CheckStars: true,
			Stars:      res.Metrics.SuppressedCells,
		})
		if !rep.OK() {
			t.Fatalf("published output violates invariants: %v", rep.Err())
		}
		if rel.Len() <= 8 {
			oracle, oerr := verify.BruteForce(rel, sigma, k, verify.BruteForceOptions{})
			if oerr != nil {
				return // e.g. Σ invalid for the oracle's stricter misuse checks
			}
			if !oracle.Feasible {
				t.Fatal("engine published output for a proven-infeasible instance")
			}
			if res.Metrics.SuppressedCells < oracle.Stars {
				t.Fatalf("engine claims %d stars, below the proven optimum %d", res.Metrics.SuppressedCells, oracle.Stars)
			}
		}
	})
}

// FuzzBruteForceOracle fuzzes the reference solver itself: whatever the
// input, it must terminate without panicking, and every feasible verdict
// must ship a witness output that the invariant checker accepts with exact
// star accounting.
func FuzzBruteForceOracle(f *testing.F) {
	f.Add("GEN:qi,CTY:qi,DIAG:sensitive\nM,Vancouver,flu\nM,Toronto,cold\nF,Toronto,flu\n",
		"GEN[M], 0, 1\n", 2)
	f.Add("GEN:qi,DIAG:sensitive\nM,flu\nF,cold\nM,cold\n", "DIAG[cold], 2, 2\n", 1)
	f.Add("AGE:qi:numeric,DIAG:sensitive\n30,flu\n30,flu\n40,cold\n", "AGE[30], 2, 2\nAGE[40], 0, 0\n", 2)

	f.Fuzz(func(t *testing.T, csvText, sigmaText string, k int) {
		rel, sigma := parseFuzzInstance(t, csvText, sigmaText, k)
		if rel.Len() > 9 {
			t.Skip("beyond oracle scale") // keep worst-case enumeration sub-second
		}
		sol, err := verify.BruteForce(rel, sigma, k, verify.BruteForceOptions{})
		if err != nil {
			return
		}
		if !sol.Feasible {
			return
		}
		rep := verify.ValidateOutput(rel, sol.Output, sigma, k, verify.Options{
			CheckStars: true,
			Stars:      sol.Stars,
		})
		if !rep.OK() {
			t.Fatalf("oracle witness violates invariants: %v", rep.Err())
		}
	})
}
