package diva_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"diva"
	"diva/internal/dataset"
)

// baselineDigests pins the published relation of baseline-only runs — Σ = ∅,
// so R′ is the baseline partitioner's rendering of all of R — for every
// built-in baseline, plain and under distinct 2-diversity where the baseline
// supports it. The mondrian and OKA digests were recorded when baseline-only
// runs had a driver of their own that never reached the coloring search,
// and the k-member ones from the exact greedy while a sampled scan still
// sat beside it. The one driver must reproduce them under every search
// mode: an empty constraint graph draws nothing from the generator the
// k-member and OKA baselines share with the search (no Basic salt, no
// portfolio seed).
var baselineDigests = map[string]string{
	"mondrian":    "42a889db3a2888e6f8a631e3b3e33508c31915534d57f1f937dd92ee92421d90",
	"mondrian/l2": "31881e0b8a387da136ae46b78ecead3ea1a57e470e183fd316bb1156516d3259",
	"k-member":    "71e0ee8036da37e4c2edf9b8040a8aaffbfeba8be0710cfca7646e674e0acbab",
	"k-member/l2": "ed6d3ad7403986bab97a81e9a859c247e80e2f7873de87b93d3fc10537043cf1",
	"oka":         "537e24c4ec210b42ef607dba2981a8e43cd432a4f52552182d7198cb642baa9e",
}

// digestRelation hashes a relation's rendered rows in order.
func digestRelation(rel *diva.Relation) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", rel.Len())
	for i := 0; i < rel.Len(); i++ {
		fmt.Fprintln(h, strings.Join(rel.Values(i), "\x1f"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBaselineOnlyOutputDigest runs a 2,000-row census sample through each
// baseline with no constraints, at the zero Strategy (Basic), at MaxFanOut
// and as a portfolio, and compares every output's digest with the pinned
// one.
func TestBaselineOnlyOutputDigest(t *testing.T) {
	const rows, k = 2000, 5
	rel := dataset.CensusSized(rows).Generate(rows, 42)
	modes := map[string]diva.Options{
		"Basic":     {},
		"MaxFanOut": {Strategy: diva.MaxFanOut},
		"portfolio": {Parallel: 2},
	}
	for name, want := range baselineDigests {
		for mode, opts := range modes {
			t.Run(name+"/"+mode, func(t *testing.T) {
				b, l2 := strings.CutSuffix(name, "/l2")
				opts.K, opts.Seed, opts.Baseline = k, 3, diva.Baseline(b)
				if l2 {
					opts.LDiversity = 2
				}
				res, err := diva.AnonymizeContext(context.Background(), rel, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestRelation(res.Output); got != want {
					t.Errorf("output digest %s differs from the pinned %s", got, want)
				}
			})
		}
	}
}

// scaleDigests pins baseline-only Mondrian runs on a 40,000-row census
// sample: above 2·par.Grain rows, so the split row passes and Mondrian's
// parallel recursion run, where TestBaselineOnlyOutputDigest's 2,000 rows
// never reach them. Recorded from the row-level Mondrian, before it
// partitioned distinct QI vectors.
var scaleDigests = map[string]string{
	"mondrian":    "2371ae648b24bdecc09950d244b2909706d9bac4bfe78c5d16e2136b27d23187",
	"mondrian/l2": "6b4fd8ea72603c2b509bfcad99322411f73c6c4428ce9d6895c992c040533ef7",
}

// TestBaselineOnlyDigestAtScale compares the published relation of each
// scaleDigests run, at Parallelism 1 and at all cores, with the pinned
// digest.
func TestBaselineOnlyDigestAtScale(t *testing.T) {
	const rows, k = 40000, 10
	rel := dataset.CensusSized(rows).Generate(rows, 42)
	for name, want := range scaleDigests {
		for _, par := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/parallelism=%d", name, par), func(t *testing.T) {
				opts := diva.Options{K: k, Seed: 3, Baseline: diva.Mondrian, Parallelism: par}
				if strings.HasSuffix(name, "/l2") {
					opts.LDiversity = 2
				}
				res, err := diva.AnonymizeContext(context.Background(), rel, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestRelation(res.Output); got != want {
					t.Errorf("output digest %s differs from the pinned %s", got, want)
				}
			})
		}
	}
}
