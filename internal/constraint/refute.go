package constraint

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"diva/internal/relation"
)

// Refutation is a counting proof that no (k, Σ)-anonymization exists. Bound
// σ = (X[t], λl, λr) admits at most λr occurrences in any R′, but Family
// holds pairwise disjoint targets that refine t, so every occurrence of a
// member is a distinct occurrence of σ, and the members together demand
// more than λr. Demands[i] is Family[i]'s least occurrence count in any R′:
// its λl, raised to k when λl > 0 and every target attribute is a QI,
// because a kept occurrence of an all-QI target lies in a QI-group of ≥ k
// rows that all show it. Family == [σ] is the single-constraint case.
type Refutation struct {
	Bound   *Bound
	Family  []*Bound
	Demands []int
	K       int
}

// Error states the proof: σ, each member with its demand, the sum and λr.
func (r *Refutation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "refuted by counting: (%s) admits at most %d occurrences", r.Bound, r.Bound.Upper)
	if len(r.Family) == 1 && r.Family[0] == r.Bound {
		fmt.Fprintf(&b, ", but a kept occurrence of its all-QI target lies in a QI-group of ≥ k = %d rows", r.K)
		return b.String()
	}
	b.WriteString(", but disjoint targets within it demand ")
	sum := 0
	for i, f := range r.Family {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%d (%s)", r.Demands[i], f)
		sum += r.Demands[i]
	}
	fmt.Fprintf(&b, " = %d > %d (k = %d)", sum, r.Bound.Upper, r.K)
	return b.String()
}

// Refute looks for a counting proof that Σ admits no k-anonymization: a
// bound σ and a family F of pairwise disjoint targets refining σ's whose
// demands sum above σ's upper bound (see Refutation). It reads only Σ, k
// and the schema's QI roles, never counts from R, so a proof holds for the
// problem itself, whatever the engine would do; it returns nil when it
// finds none.
//
// F is chosen greedily: σ alone first, then σ's proper refinements by
// demand, descending, ties in Source.Key() order, each taken when it is
// disjoint from those already taken. The choice depends on Σ as a set, not
// on its order. Targets agree or differ by dictionary code, and a value R
// never holds has no code of its own, so a target with such a value refines
// nothing and is disjoint from no other target with one on that attribute:
// both keep the rule conservative. Refute allocates only a proof.
func Refute(bounds []*Bound, schema *relation.Schema, k int) *Refutation {
	for _, s := range bounds {
		if r := refuteBound(bounds, s, schema, k); r != nil {
			return r
		}
	}
	return nil
}

func refuteBound(bounds []*Bound, s *Bound, schema *relation.Schema, k int) *Refutation {
	if d := demand(s, schema, k); d > s.Upper {
		return &Refutation{Bound: s, Family: []*Bound{s}, Demands: []int{d}, K: k}
	}
	// No disjoint family can demand more than all refinements together.
	total := 0
	for _, f := range bounds {
		if f != s && refines(f, s) {
			total += demand(f, schema, k)
		}
	}
	if total <= s.Upper {
		return nil
	}
	// before orders refinements by demand, descending, then by target.
	before := func(a, b *Bound) bool {
		return cmp.Or(cmp.Compare(demand(b, schema, k), demand(a, schema, k)), compareTargets(a.Source, b.Source)) < 0
	}
	var buf [8]*Bound
	family := buf[:0]
	sum := 0
	for prev := (*Bound)(nil); ; {
		var next *Bound
		for _, f := range bounds {
			if f == s || !refines(f, s) || demand(f, schema, k) == 0 || (prev != nil && !before(prev, f)) {
				continue
			}
			if next == nil || before(f, next) {
				next = f
			}
		}
		if next == nil {
			return nil
		}
		prev = next
		if slices.ContainsFunc(family, func(g *Bound) bool { return !disjoint(next, g) }) {
			continue
		}
		family = append(family, next)
		if sum += demand(next, schema, k); sum > s.Upper {
			r := &Refutation{Bound: s, Family: slices.Clone(family), Demands: make([]int, len(family)), K: k}
			for i, f := range r.Family {
				r.Demands[i] = demand(f, schema, k)
			}
			return r
		}
	}
}

// demand is the least number of occurrences of b's target in any R′ that
// satisfies b: λl, raised to k when λl > 0 and every target attribute is a
// QI.
func demand(b *Bound, schema *relation.Schema, k int) int {
	if b.Lower == 0 || b.Lower >= k {
		return b.Lower
	}
	for _, a := range b.Attrs {
		if schema.Attr(a).Role != relation.QI {
			return b.Lower
		}
	}
	return k
}

// refines reports whether f's target refines s's: f's attributes include
// s's, with the same codes there. A value R never holds refines nothing.
func refines(f, s *Bound) bool {
	for i, a := range s.Attrs {
		j := slices.Index(f.Attrs, a)
		if j < 0 || f.Codes[j] != s.Codes[i] || s.Codes[i] == impossibleCode {
			return false
		}
	}
	return true
}

// disjoint reports whether no row can hold both targets: they differ in
// code on a shared attribute.
func disjoint(a, b *Bound) bool {
	for i, attr := range a.Attrs {
		if j := slices.Index(b.Attrs, attr); j >= 0 && b.Codes[j] != a.Codes[i] {
			return true
		}
	}
	return false
}

// compareTargets orders two targets as their Keys do, by (attribute, value)
// pairs in attribute order, without building the keys.
func compareTargets(a, b Constraint) int {
	for i := 0; i < len(a.Attrs) && i < len(b.Attrs); i++ {
		x, y := nthAttr(a.Attrs, i), nthAttr(b.Attrs, i)
		if c := cmp.Or(strings.Compare(a.Attrs[x], b.Attrs[y]), strings.Compare(a.Values[x], b.Values[y])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Attrs), len(b.Attrs))
}

// nthAttr returns the position of the i-th smallest of attrs, which are
// unique.
func nthAttr(attrs []string, i int) int {
	for j, a := range attrs {
		rank := 0
		for _, o := range attrs {
			if o < a {
				rank++
			}
		}
		if rank == i {
			return j
		}
	}
	return -1
}
