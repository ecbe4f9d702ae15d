package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"diva/internal/anon"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/search"
)

// The equivalence suite pins the engine's exact output on the paper's
// running example and on the dataset profiles the examples/ programs use.
// Golden digests live in testdata/equivalence.json; regenerate with
//
//	go test ./internal/core -run TestEngineEquivalence -update
//
// Representation refactors (such as the rowset bitset core) must keep every
// digest byte-identical: the digest covers all rows of Output, Diverse and
// Rest, the clustering SΣ, and the repaired-cell count.
var updateGolden = flag.Bool("update", false, "rewrite testdata/equivalence.json")

const goldenPath = "testdata/equivalence.json"

// digestResult renders every externally visible artifact of a run into one
// canonical byte stream and hashes it.
func digestResult(res *core.Result) string {
	h := sha256.New()
	writeRel := func(label string, rel interface {
		Len() int
		Values(int) []string
	}) {
		fmt.Fprintf(h, "#%s %d\n", label, rel.Len())
		for i := 0; i < rel.Len(); i++ {
			fmt.Fprintln(h, strings.Join(rel.Values(i), "\x1f"))
		}
	}
	writeRel("output", res.Output)
	writeRel("diverse", res.Diverse)
	writeRel("rest", res.Rest)
	fmt.Fprintf(h, "#clustering %d\n", len(res.Clustering))
	for _, c := range res.Clustering {
		fmt.Fprintln(h, c)
	}
	fmt.Fprintf(h, "#repaired %d\n", res.RepairedCells)
	return hex.EncodeToString(h.Sum(nil))
}

type equivCase struct {
	name string
	run  func(t *testing.T) *core.Result
}

// proportionalSigma derives a deterministic constraint workload, as the
// examples/ programs do.
func proportionalSigma(t *testing.T, rel *relation.Relation, n, k int) constraint.Set {
	t.Helper()
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count: n,
		K:     k,
		Rng:   rand.New(rand.NewPCG(3, 14)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sigma
}

func anonymize(t *testing.T, rel *relation.Relation, sigma constraint.Set, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Anonymize(context.Background(), rel, sigma, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func equivCases() []equivCase {
	var cases []equivCase
	// The paper's running example (Table 1, Example 3.1) under every
	// strategy.
	for _, strat := range []search.Strategy{search.Basic, search.MinChoice, search.MaxFanOut} {
		strat := strat
		cases = append(cases, equivCase{
			name: "paper/" + strat.String(),
			run: func(t *testing.T) *core.Result {
				rel := paperRelation(t)
				rng := rand.New(rand.NewPCG(4, 2))
				return anonymize(t, rel, paperSigma(), core.Options{
					K: 2, Strategy: strat, Rng: rng,
					Anonymizer: &anon.KMember{Rng: rng},
				})
			},
		})
	}
	// The dataset profiles the examples/ programs run on, scaled down.
	profiles := []struct {
		name string
		gen  *dataset.Generator
		rows int
		n, k int
	}{
		{"census", dataset.Census(), 800, 6, 10},
		{"credit", dataset.Credit(), 600, 4, 10},
		{"popsyn-zipf", dataset.PopSyn(dataset.Zipfian), 600, 4, 5},
		{"pantheon", dataset.Pantheon(), 600, 4, 5},
	}
	for _, p := range profiles {
		p := p
		for _, strat := range []search.Strategy{search.MinChoice, search.MaxFanOut} {
			strat := strat
			cases = append(cases, equivCase{
				name: fmt.Sprintf("%s/%s", p.name, strat.String()),
				run: func(t *testing.T) *core.Result {
					rel := p.gen.Generate(p.rows, 42)
					sigma := proportionalSigma(t, rel, p.n, p.k)
					rng := rand.New(rand.NewPCG(9, 7))
					return anonymize(t, rel, sigma, core.Options{
						K: p.k, Strategy: strat, Rng: rng,
						Anonymizer: &anon.KMember{Rng: rng},
					})
				},
			})
		}
	}
	// A criterion-carrying run (the healthcare example's shape).
	cases = append(cases, equivCase{
		name: "census/l-diverse",
		run: func(t *testing.T) *core.Result {
			rel := dataset.Census().Generate(800, 42)
			sigma := proportionalSigma(t, rel, 4, 10)
			rng := rand.New(rand.NewPCG(11, 5))
			return anonymize(t, rel, sigma, core.Options{
				K: 10, Strategy: search.MaxFanOut, Rng: rng,
				Criterion:  privacy.DistinctLDiversity{L: 2},
				Anonymizer: &anon.KMember{Rng: rng, Criterion: privacy.DistinctLDiversity{L: 2}},
			})
		},
	})
	return cases
}

func TestEngineEquivalence(t *testing.T) {
	cases := equivCases()
	got := make(map[string]string, len(cases))
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got[c.name] = digestResult(c.run(t))
		})
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden digest recorded (run with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: output digest %s differs from golden %s — the engine's byte-level output changed", name, g[:12], w[:12])
		}
	}
}
