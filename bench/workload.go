package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/verify"
)

// verdict is what a workload expects every run to conclude.
type verdict int

const (
	// anyVerdict accepts a published relation or ErrNoDiverseClustering.
	anyVerdict verdict = iota
	feasible
	infeasible
)

// input is one instance as the benchmark hands it to the program: an
// annotated CSV and a Σ text, exactly what cmd/diva would read from disk.
type input struct {
	csv   []byte
	sigma string
	k     int
	// ldiv ≥ 2 adds distinct l-diversity as the run's privacy criterion.
	ldiv int
}

// instance is a parsed input.
type instance struct {
	rel   *relation.Relation
	sigma constraint.Set
	k     int
	crit  privacy.Criterion
}

// workload is one named input family with its engine settings and the
// checks its outputs must pass.
type workload struct {
	name   string
	shards int
	expect verdict
	// containment runs the O(|R|²) R ⊑ R′ check; census-scale outputs skip it.
	containment bool
	// exactRest requires the replay's Rk to equal the engine's cell for cell,
	// which holds only on monolithic runs without Integrate repairs.
	exactRest bool
	generate  func(seed uint64, quick bool) ([]input, error)
}

// censusSigmaSeed fixes which value frequencies the proportional Σ targets.
// The workload seed varies the census sample; the candidate ranks it picks
// from are stable at these sizes, so every seed asks the same kind of query.
// Drawing the targets from the workload seed as well moved census-300k's
// allocation by ±3% from seed to seed, against 0.3% with fixed targets.
const censusSigmaSeed = 0x51a3

var workloads = []*workload{
	{
		name:     "census-300k",
		expect:   feasible,
		generate: censusInputs(dataset.CensusRows, 3000, 1),
		// Monolithic with UpperFrac 1: Integrate repairs nothing, so the
		// replay's Mondrian output must match Rk exactly.
		exactRest: true,
	},
	{
		name:     "census-60k-sharded",
		shards:   core.ShardsAuto,
		expect:   feasible,
		generate: censusInputs(60000, 9000, 0.9),
	},
	{
		name:        "dense-conflict",
		expect:      infeasible,
		containment: true,
		generate:    denseInputs,
	},
	{
		name:        "micro-batch",
		expect:      anyVerdict,
		containment: true,
		generate:    microInputs,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// censusInputs draws one census sample of the given size (quickRows under
// -quick) with a proportional Σ of 8 constraints at k=10.
func censusInputs(rows, quickRows int, upperFrac float64) func(uint64, bool) ([]input, error) {
	return func(seed uint64, quick bool) ([]input, error) {
		n := rows
		if quick {
			n = quickRows
		}
		rel := dataset.CensusSized(n).Generate(n, seed)
		sigma, err := constraint.Proportional(rel, constraint.GenOptions{
			Count:     8,
			K:         10,
			Rng:       rand.New(rand.NewPCG(censusSigmaSeed, censusSigmaSeed)),
			UpperFrac: upperFrac,
		})
		if err != nil {
			return nil, fmt.Errorf("census Σ: %w", err)
		}
		in, err := render(rel, sigma, 10, 0)
		if err != nil {
			return nil, err
		}
		return []input{in}, nil
	}
}

// denseInstances is the dense-conflict batch size. Instance costs spread
// from about 10 to 35 ms; with 64 instances the batch's median moved by 15%
// from seed to seed, with 256 by under 10%.
const denseInstances = 256

// densePadders is how many EDUCATION padders each dense Σ carries. Under
// MinChoice, two keep every instance within about 30 ms (about 120 search
// steps); three already give some instances a tail of about a second and
// four (|Σ|=7) over ten seconds, which swamps any per-seed statistic.
const densePadders = 2

// denseInputs draws census samples of 400 rows, each with the infeasible
// REGION core of the nogood study plus densePadders cluster-forcing EDUCATION
// padders.
func denseInputs(seed uint64, quick bool) ([]input, error) {
	want := denseInstances
	if quick {
		want = 2
	}
	rng := rand.New(rand.NewPCG(seed, 0xd3a5e))
	var out []input
	for tries := 0; len(out) < want; tries++ {
		if tries > 50*want {
			return nil, fmt.Errorf("dense-conflict: only %d of %d samples have a REGION core", len(out), want)
		}
		rel := dataset.CensusSized(400).Generate(400, rng.Uint64())
		sigma, ok := denseSigma(rel, 10, densePadders)
		if !ok {
			continue
		}
		in, err := render(rel, sigma, 10, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// denseSigma is the nogood study's dense-conflict Σ (internal/bench):
// REGION[r] capped at 2k−2 while (REGION[r], SEX[Male]) and (REGION[r],
// SEX[Female]) each demand a cluster of ≥ k — infeasible — padded with
// cluster-forcing EDUCATION constraints whose pools miss the core's conflict.
// ok is false when no REGION value has enough support of both sexes.
func denseSigma(rel *relation.Relation, k, padders int) (sigma constraint.Set, ok bool) {
	occ := func(c constraint.Constraint) int {
		b, err := c.Bound(rel)
		if err != nil {
			return 0
		}
		return b.CountIn(rel)
	}
	for _, r := range valuesWithSupport(rel, "REGION", 3*k-2, 6*k) {
		male := constraint.NewMulti([]string{"REGION", "SEX"}, []string{r, "Male"}, k, rel.Len())
		female := constraint.NewMulti([]string{"REGION", "SEX"}, []string{r, "Female"}, k, rel.Len())
		if occ(male) <= k || occ(female) <= k {
			continue
		}
		sigma = append(sigma, constraint.New("REGION", r, 0, 2*k-2), male, female)
		ok = true
		break
	}
	if !ok {
		return nil, false
	}
	pads := valuesWithSupport(rel, "EDUCATION", k+1, 8*k)
	if len(pads) > padders {
		pads = pads[:padders]
	}
	for _, e := range pads {
		c := constraint.New("EDUCATION", e, 0, 0)
		c.Lower, c.Upper = k, occ(c)
		sigma = append(sigma, c)
	}
	return sigma, true
}

// valuesWithSupport lists attr's values occurring between lo and hi times,
// most frequent first (ties by value).
func valuesWithSupport(rel *relation.Relation, attr string, lo, hi int) []string {
	idx, ok := rel.Schema().Index(attr)
	if !ok {
		return nil
	}
	type vf struct {
		v string
		n int
	}
	var vs []vf
	for code, n := range rel.ValueFrequencies(idx) {
		if code != relation.StarCode && n >= lo && n <= hi {
			vs = append(vs, vf{rel.Dict(idx).Value(code), n})
		}
	}
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].n != vs[j].n {
			return vs[i].n > vs[j].n
		}
		return vs[i].v < vs[j].v
	})
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.v
	}
	return out
}

// microInstances is the micro-batch size: about 0.1 ms per run, so a pass
// takes about 3 s and per-run fixed costs dominate.
const microInstances = 20000

// microInputs alternates the verify package's oracle-scale generators: a
// random instance (sometimes with distinct 2-diversity) and a dense-conflict
// one.
func microInputs(seed uint64, quick bool) ([]input, error) {
	n := microInstances
	if quick {
		n = 200
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d1c))
	out := make([]input, n)
	for i := range out {
		var inst verify.Instance
		if i%2 == 0 {
			inst = verify.RandomInstance(rng, i, true)
		} else {
			inst = verify.DenseConflictInstance(rng, i, 0)
		}
		in, err := render(inst.Rel, inst.Sigma, inst.K, inst.LDiversity)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", inst, err)
		}
		out[i] = in
	}
	return out, nil
}

// render turns a generated instance into the text the program parses.
func render(rel *relation.Relation, sigma constraint.Set, k, ldiv int) (input, error) {
	var buf bytes.Buffer
	if err := relation.WriteAnnotatedCSV(&buf, rel); err != nil {
		return input{}, fmt.Errorf("rendering CSV: %w", err)
	}
	return input{csv: buf.Bytes(), sigma: sigma.String(), k: k, ldiv: ldiv}, nil
}

// parse loads one input the way cmd/diva does.
func parse(in input) (*instance, error) {
	rel, err := parseRelation(in)
	if err != nil {
		return nil, err
	}
	sigma, err := parseSigma(in)
	if err != nil {
		return nil, err
	}
	inst := &instance{rel: rel, sigma: sigma, k: in.k}
	if in.ldiv >= 2 {
		inst.crit = privacy.DistinctLDiversity{L: in.ldiv}
	}
	return inst, nil
}

func parseRelation(in input) (*relation.Relation, error) {
	rel, err := relation.ReadAnnotatedCSV(bytes.NewReader(in.csv))
	if err != nil {
		return nil, fmt.Errorf("parsing CSV: %w", err)
	}
	return rel, nil
}

func parseSigma(in input) (constraint.Set, error) {
	sigma, err := constraint.ParseSet(strings.NewReader(in.sigma))
	if err != nil {
		return nil, fmt.Errorf("parsing Σ: %w", err)
	}
	return sigma, nil
}

func parseAll(inputs []input) ([]*instance, error) {
	out := make([]*instance, len(inputs))
	for i, in := range inputs {
		inst, err := parse(in)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		out[i] = inst
	}
	return out, nil
}
