package verify

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"

	"diva/internal/constraint"
	"diva/internal/privacy"
	"diva/internal/relation"
)

// Instance is one self-contained (k, Σ)-anonymization problem at oracle
// scale: a micro relation, a constraint set and a privacy parameter. The
// differential and metamorphic test harnesses generate hundreds of these,
// solve them exactly with BruteForce, and compare the engine's answers.
type Instance struct {
	// Name identifies the instance in failure messages (generator family,
	// index and shape).
	Name string
	// Rel is the input relation R.
	Rel *relation.Relation
	// Sigma is the diversity constraint set Σ.
	Sigma constraint.Set
	// K is the privacy parameter.
	K int
	// LDiversity, when ≥ 2, additionally requires distinct l-diversity on
	// every QI-group (mirrors diva.Options.LDiversity).
	LDiversity int
}

// String renders the instance compactly for failure messages.
func (in Instance) String() string {
	return fmt.Sprintf("%s: n=%d k=%d l=%d |Σ|=%d", in.Name, in.Rel.Len(), in.K, in.LDiversity, len(in.Sigma))
}

// Criterion returns the instance's group-level privacy criterion, or nil
// when LDiversity is off.
func (in Instance) Criterion() privacy.Criterion {
	if in.LDiversity >= 2 {
		return privacy.DistinctLDiversity{L: in.LDiversity}
	}
	return nil
}

// Rows returns the instance's tuples as strings, one row per tuple in
// schema order — the transform functions rebuild relations from this view so
// dictionary codes are re-interned in the transformed order.
func (in Instance) Rows() [][]string {
	out := make([][]string, in.Rel.Len())
	for i := range out {
		out[i] = in.Rel.Values(i)
	}
	return out
}

// instanceValues are the small domains instances draw from. Tiny domains
// force value collisions, which is what makes micro-instances interesting:
// QI-groups form, targets overlap, and bounds actually bind.
var (
	instanceGenders = []string{"M", "F"}
	instanceAges    = []string{"30", "40", "50"}
	instanceCities  = []string{"Vancouver", "Toronto", "Calgary", "Winnipeg"}
	instanceDiags   = []string{"flu", "cold", "asthma"}
)

// RandomInstance deterministically generates the id-th micro-instance from
// rng: a relation of up to DefaultMaxRows tuples over a small schema, and
// 0–3 diversity constraints whose targets are (mostly) drawn from values
// actually present, with bounds spanning loose, binding and infeasible
// shapes. withCriterion adds distinct 2-diversity to a fraction of the
// instances; the strict differential harness runs without it because the
// greedy baselines are knowingly incomplete under a criterion.
//
// # Completeness envelope
//
// Generated constraint sets keep the target pools of "binding" constraints
// pairwise disjoint. DIVA's coloring is deliberately conservative across
// overlapping constraints: a candidate clustering may never push another
// constraint's preserved occurrences above its λr (Section 3.2, condition
// 2), and Algorithm 2 never suppresses an attribute a cluster agrees on —
// so an instance that is only solvable by suppressing a preserved cluster's
// uniform target attribute is feasible for the exact solver but reported
// infeasible by the engine. Within the disjoint-pool envelope the engine's
// feasibility verdict provably coincides with the oracle's, which is what
// the strict differential harness asserts; RandomAdversarialInstance lifts
// the restriction for the one-sided soundness harness.
func RandomInstance(rng *rand.Rand, id int, withCriterion bool) Instance {
	return randomInstance(rng, id, withCriterion, true)
}

// RandomAdversarialInstance is RandomInstance without the disjoint-pool
// envelope: binding constraints may overlap arbitrarily, producing instances
// the engine is allowed to reject conservatively but must never solve
// unsoundly.
func RandomAdversarialInstance(rng *rand.Rand, id int) Instance {
	inst := randomInstance(rng, id, false, false)
	inst.Name += "/adv"
	return inst
}

func randomInstance(rng *rand.Rand, id int, withCriterion, disjointPools bool) Instance {
	// Privacy parameter first; the row count is drawn relative to it.
	k := 1 + rng.IntN(3)
	n := k + rng.IntN(8)
	if n > DefaultMaxRows {
		n = DefaultMaxRows
	}
	if rng.IntN(20) == 0 && k > 1 {
		n = rng.IntN(k) // deliberately unanonymizable: fewer rows than k
	}

	shape := rng.IntN(3)
	attrs := []relation.Attribute{
		{Name: "GEN", Role: relation.QI},
		{Name: "CTY", Role: relation.QI},
		{Name: "DIAG", Role: relation.Sensitive},
	}
	if shape == 1 {
		attrs = append(attrs[:1], append([]relation.Attribute{{Name: "AGE", Role: relation.QI, Kind: relation.Numeric}}, attrs[1:]...)...)
	}
	if shape == 2 {
		attrs = append(attrs, relation.Attribute{Name: "SSN", Role: relation.Identifier})
	}
	rel := relation.New(relation.MustSchema(attrs...))

	cities := instanceCities[:2+rng.IntN(3)]
	diags := instanceDiags[:2+rng.IntN(2)]
	ages := instanceAges[:1+rng.IntN(3)]
	for i := 0; i < n; i++ {
		row := []string{instanceGenders[rng.IntN(2)]}
		if shape == 1 {
			row = append(row, ages[rng.IntN(len(ages))])
		}
		row = append(row, cities[rng.IntN(len(cities))], diags[rng.IntN(len(diags))])
		if shape == 2 {
			row = append(row, "id-"+strconv.Itoa(i))
		}
		rel.MustAppendValues(row...)
	}

	inst := Instance{
		Name: fmt.Sprintf("rand-%d/shape%d", id, shape),
		Rel:  rel,
		K:    k,
	}
	if withCriterion && k >= 2 && rng.IntN(5) == 0 {
		inst.LDiversity = 2
	}

	seen := map[string]bool{}
	taken := map[int]bool{} // union of accepted binding constraints' pools
	for tries := rng.IntN(4); tries > 0; tries-- {
		c, ok := randomConstraint(rng, rel, k)
		if !ok || seen[c.Key()] {
			continue
		}
		if disjointPools {
			pool, binding := bindingPool(c, rel)
			if binding {
				overlaps := false
				for _, row := range pool {
					if taken[row] {
						overlaps = true
						break
					}
				}
				if overlaps {
					continue // outside the engine's completeness envelope
				}
				for _, row := range pool {
					taken[row] = true
				}
			}
		}
		seen[c.Key()] = true
		inst.Sigma = append(inst.Sigma, c)
	}
	return inst
}

// DenseConflictInstance deterministically generates the id-th dense-conflict
// micro-instance: every constraint targets the same tiny QI neighborhood
// (two cities, two genders, and their combinations), so the constraints'
// target pools overlap pairwise and the conflict rate cf(Σ) is high. On these
// instances the chronological search backtracks most: it thrashes between
// mutually blocking constraints.
//
// rows > 0 fixes the relation size (the caller owns staying under oracle or
// fuzz caps); rows ≤ 0 draws an oracle-scale size in [2k, DefaultMaxRows].
// Dense instances deliberately violate the disjoint-pool completeness
// envelope (see RandomInstance), so harnesses must hold them to the
// one-sided oracle contract: no success on a proven-infeasible instance and
// no claim below the proven optimum.
func DenseConflictInstance(rng *rand.Rand, id, rows int) Instance {
	k := 2 + rng.IntN(2)
	n := rows
	if n <= 0 {
		n = 2*k + rng.IntN(DefaultMaxRows-2*k+1)
	}
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	cities := instanceCities[:2]
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			instanceGenders[rng.IntN(2)],
			cities[rng.IntN(2)],
			instanceDiags[rng.IntN(2)],
		)
	}
	inst := Instance{Name: fmt.Sprintf("dense-%d/n%d", id, n), Rel: rel, K: k}

	occ := func(c constraint.Constraint) int {
		b, err := c.Bound(rel)
		if err != nil {
			return 0
		}
		return b.CountIn(rel)
	}
	add := func(c constraint.Constraint) {
		o := occ(c)
		if o == 0 {
			return // absent targets add no conflict pressure
		}
		// Binding shapes only: a lower bound forcing a cluster when a ≥ k
		// pool exists, paired with an upper bound at or just below the
		// occurrence count, or an upper bound forcing suppression outright.
		// Tight uppers are what make the pools compete — a cluster accepted
		// for one constraint preserves rows that push a neighbor over its
		// bound, so the search thrashes between them.
		switch {
		case o >= k && rng.IntN(4) > 0:
			c.Lower = k
			c.Upper = max(k, o-rng.IntN(2))
		case rng.IntN(2) == 0:
			c.Lower, c.Upper = 0, max(0, o-1-rng.IntN(2))
		default:
			c.Lower, c.Upper = 0, o
		}
		if c.Upper < c.Lower {
			c.Upper = c.Lower
		}
		inst.Sigma = append(inst.Sigma, c)
	}
	for _, city := range cities {
		add(constraint.New("CTY", city, 0, 0))
	}
	for _, gen := range instanceGenders[:2] {
		add(constraint.New("GEN", gen, 0, 0))
	}
	for _, city := range cities {
		add(constraint.NewMulti(
			[]string{"GEN", "CTY"},
			[]string{instanceGenders[rng.IntN(2)], city},
			0, 0))
	}
	return inst
}

// DenseCensusSigma builds the dense-conflict Σ over a census sample (see
// dataset.Census) at privacy parameter k: an infeasible three-constraint
// core — REGION[r] capped at 2k−2 preserved occurrences while (REGION[r],
// SEX[Male]) and (REGION[r], SEX[Female]) each demand a cluster of ≥ k, so
// any coloring preserving both clusters puts ≥ 2k visible REGION[r] cells
// over the cap — padded with up to padders cluster-forcing EDUCATION
// constraints whose pools miss the core's conflict. The core's pools
// overlap pairwise, so cf(Σ) is high, and chronological search can prove
// the instance infeasible only by exhausting the padders' candidate
// products. ok is false when no REGION value has more than k rows of each
// sex.
func DenseCensusSigma(rel *relation.Relation, k, padders int) (sigma constraint.Set, ok bool) {
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
		if occ(male) > k && occ(female) > k {
			sigma, ok = constraint.Set{constraint.New("REGION", r, 0, 2*k-2), male, female}, true
			break
		}
	}
	if !ok {
		return nil, false
	}
	pads := valuesWithSupport(rel, "EDUCATION", k+1, 8*k)
	for _, e := range pads[:min(len(pads), padders)] {
		c := constraint.New("EDUCATION", e, 0, 0)
		c.Lower, c.Upper = k, occ(c)
		sigma = append(sigma, c)
	}
	return sigma, true
}

// valuesWithSupport lists attr's values occurring between lo and hi times,
// most frequent first, ties by value.
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
	slices.SortFunc(vs, func(x, y vf) int {
		return cmp.Or(cmp.Compare(y.n, x.n), cmp.Compare(x.v, y.v))
	})
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.v
	}
	return out
}

// bindingPool returns c's QI-side target pool when c is binding: searchable
// (targets at least one QI attribute) and either forcing a cluster (λl > 0)
// or forcing suppression (λr below R's occurrence count). Loose searchable
// constraints and sensitive-only constraints never bind a clustering, so
// they may overlap anything.
func bindingPool(c constraint.Constraint, rel *relation.Relation) ([]int, bool) {
	b, err := c.Bound(rel)
	if err != nil {
		return nil, false
	}
	schema := rel.Schema()
	searchable := false
	for _, a := range b.Attrs {
		if schema.Attr(a).Role == relation.QI {
			searchable = true
			break
		}
	}
	if !searchable {
		return nil, false
	}
	if c.Lower == 0 && b.CountIn(rel) <= c.Upper {
		return nil, false
	}
	return b.TargetQIRows(rel), true
}

// randomConstraint draws one constraint whose bounds are anchored on the
// value's actual occurrence count, so the generated mix covers trivially
// loose bounds, exactly-binding bounds, upper bounds that force suppression,
// and unsatisfiable lower bounds.
func randomConstraint(rng *rand.Rand, rel *relation.Relation, k int) (constraint.Constraint, bool) {
	schema := rel.Schema()
	var qiNames, sensNames []string
	for i := 0; i < schema.Len(); i++ {
		switch schema.Attr(i).Role {
		case relation.QI:
			qiNames = append(qiNames, schema.Attr(i).Name)
		case relation.Sensitive:
			sensNames = append(sensNames, schema.Attr(i).Name)
		}
	}
	pick := func(attr string) string {
		idx, _ := schema.Index(attr)
		if rel.Len() == 0 || rng.IntN(8) == 0 {
			return "absent-" + attr // a value that never occurs
		}
		return rel.Value(rng.IntN(rel.Len()), idx)
	}
	count := func(c constraint.Constraint) int {
		b, err := c.Bound(rel)
		if err != nil {
			return 0
		}
		return b.CountIn(rel)
	}

	var c constraint.Constraint
	switch roll := rng.IntN(10); {
	case roll < 6: // single QI-attribute target
		attr := qiNames[rng.IntN(len(qiNames))]
		c = constraint.New(attr, pick(attr), 0, 0)
		occ := count(c)
		switch rng.IntN(3) {
		case 0: // loose
			c.Lower, c.Upper = 0, occ+rng.IntN(3)
		case 1: // upper bound that forces suppression
			c.Lower, c.Upper = 0, rng.IntN(occ+1)
		default: // binding lower bound, achievable by a ≥ k cluster
			c.Upper = occ + rng.IntN(2)
			if c.Upper < k {
				c.Lower = 0
			} else {
				lo := k + rng.IntN(occ+1)
				if lo > c.Upper {
					lo = c.Upper
				}
				if lo > occ {
					lo = occ
				}
				c.Lower = lo
			}
		}
	case roll < 8: // sensitive-only target: occurrences are invariant
		attr := sensNames[rng.IntN(len(sensNames))]
		c = constraint.New(attr, pick(attr), 0, 0)
		occ := count(c)
		c.Lower = rng.IntN(occ + 1)
		c.Upper = occ + rng.IntN(2)
		if rng.IntN(8) == 0 { // unsatisfiable on purpose
			c.Upper = c.Lower
			if occ > 0 && rng.IntN(2) == 0 {
				c.Lower, c.Upper = occ+1, occ+2
			}
		}
	default: // multi-attribute target (QI + QI or QI + sensitive)
		a1 := qiNames[rng.IntN(len(qiNames))]
		a2 := sensNames[rng.IntN(len(sensNames))]
		if rng.IntN(2) == 0 && len(qiNames) > 1 {
			a2 = qiNames[rng.IntN(len(qiNames))]
			if a2 == a1 {
				return constraint.Constraint{}, false
			}
		}
		c = constraint.NewMulti([]string{a1, a2}, []string{pick(a1), pick(a2)}, 0, 0)
		occ := count(c)
		// Mixed targets stress the enumerator's sparse-match paths; keep the
		// lower bound slack so feasibility hinges on the upper bound.
		c.Lower, c.Upper = 0, rng.IntN(occ+3)
	}
	if c.Upper < c.Lower {
		c.Upper = c.Lower
	}
	return c, true
}

// rebuild re-interns rows into a fresh relation over schema, so dictionary
// codes reflect the (possibly transformed) first-appearance order.
func rebuild(schema *relation.Schema, rows [][]string) *relation.Relation {
	rel := relation.New(schema)
	for _, row := range rows {
		rel.MustAppendValues(row...)
	}
	return rel
}

// PermuteRows returns the instance with tuples reordered by perm (output row
// i holds input row perm[i]) and codes re-interned. Feasibility and the
// oracle's optimal star count are invariant under this transform.
func PermuteRows(in Instance, perm []int) Instance {
	rows := in.Rows()
	permuted := make([][]string, len(rows))
	for i, p := range perm {
		permuted[i] = rows[p]
	}
	out := in
	out.Name = in.Name + "+rowperm"
	out.Rel = rebuild(in.Rel.Schema(), permuted)
	return out
}

// PermuteColumns returns the instance with attributes reordered by perm
// (output column i holds input column perm[i]); constraints address
// attributes by name and are untouched. Feasibility and optimal star count
// are invariant.
func PermuteColumns(in Instance, perm []int) Instance {
	schema := in.Rel.Schema()
	attrs := make([]relation.Attribute, len(perm))
	for i, p := range perm {
		attrs[i] = schema.Attr(p)
	}
	rows := in.Rows()
	permuted := make([][]string, len(rows))
	for i, row := range rows {
		permuted[i] = make([]string, len(perm))
		for j, p := range perm {
			permuted[i][j] = row[p]
		}
	}
	out := in
	out.Name = in.Name + "+colperm"
	out.Rel = rebuild(relation.MustSchema(attrs...), permuted)
	return out
}

// RenameValues returns the instance with every attribute value v bijectively
// renamed to v+suffix, in the relation and in the constraint targets alike.
// Occurrence counts, group structure, feasibility and optimal star count are
// all invariant (numeric attributes lose their numeric interpretation, which
// heuristics may use for ordering but correctness must not depend on).
func RenameValues(in Instance, suffix string) Instance {
	rows := in.Rows()
	renamed := make([][]string, len(rows))
	for i, row := range rows {
		renamed[i] = make([]string, len(row))
		for j, v := range row {
			renamed[i][j] = v + suffix
		}
	}
	sigma := make(constraint.Set, len(in.Sigma))
	for i, c := range in.Sigma {
		values := make([]string, len(c.Values))
		for j, v := range c.Values {
			values[j] = v + suffix
		}
		sigma[i] = constraint.Constraint{
			Attrs:  append([]string(nil), c.Attrs...),
			Values: values,
			Lower:  c.Lower, Upper: c.Upper,
		}
	}
	out := in
	out.Name = in.Name + "+rename"
	out.Rel = rebuild(in.Rel.Schema(), renamed)
	out.Sigma = sigma
	return out
}

// ReorderConstraints returns the instance with Σ reordered by perm.
// Constraint sets are sets: feasibility and optimal star count are
// invariant.
func ReorderConstraints(in Instance, perm []int) Instance {
	sigma := make(constraint.Set, len(in.Sigma))
	for i, p := range perm {
		sigma[i] = in.Sigma[p]
	}
	out := in
	out.Name = in.Name + "+sigmaperm"
	out.Sigma = sigma
	return out
}
