// Package privacy implements group-level privacy criteria beyond
// k-anonymity. The paper notes that DIVA "is extensible to re-define the
// clustering criteria according to these privacy semantics" (Section 2,
// Related Work); this package is that extension point: a Criterion is
// evaluated on prospective QI-groups during cluster enumeration (DIVA) and
// cluster growth (the baselines), and on final QI-groups by the verifiers.
//
// Provided criteria:
//
//   - KAnonymity — groups of at least K tuples (Definition 2.1);
//   - DistinctLDiversity — every sensitive attribute carries at least L
//     distinct values in every group (Machanavajjhala et al., ICDE 2006);
//   - TCloseness — the distance between a group's sensitive-value
//     distribution and the whole relation's is at most T (Li et al., ICDE
//     2007), with total variation distance over categorical domains.
//
// KAnonymity and DistinctLDiversity are monotone: adding tuples to a group
// never invalidates them, which is what lets greedy cluster growth enforce
// them. TCloseness is not monotone and is therefore supported as a
// verification criterion (and by Mondrian, whose recursive splits only need
// a per-split check), not by the greedy growers.
package privacy

import (
	"fmt"
	"slices"

	"diva/internal/relation"
)

// Criterion is a group-level privacy requirement on QI-groups.
type Criterion interface {
	// Name identifies the criterion in error messages.
	Name() string
	// Holds reports whether the given group of rows of rel satisfies the
	// criterion.
	Holds(rel *relation.Relation, group []int) bool
	// Monotone reports whether adding rows to a satisfying group always
	// preserves satisfaction. Greedy cluster growth can only enforce
	// monotone criteria.
	Monotone() bool
}

// KAnonymity requires groups of at least K tuples.
type KAnonymity struct{ K int }

// Name implements Criterion.
func (c KAnonymity) Name() string { return fmt.Sprintf("%d-anonymity", c.K) }

// Holds implements Criterion.
func (c KAnonymity) Holds(_ *relation.Relation, group []int) bool { return len(group) >= c.K }

// Monotone implements Criterion.
func (c KAnonymity) Monotone() bool { return true }

// DistinctLDiversity requires every sensitive attribute to carry at least L
// distinct values within every QI-group, preventing attribute disclosure
// when all tuples of a group share one sensitive value.
type DistinctLDiversity struct{ L int }

// Name implements Criterion.
func (c DistinctLDiversity) Name() string { return fmt.Sprintf("distinct %d-diversity", c.L) }

// Holds implements Criterion.
func (c DistinctLDiversity) Holds(rel *relation.Relation, group []int) bool {
	if c.L <= 1 {
		return true
	}
	if len(group) < c.L {
		return false
	}
	// At most L distinct codes are ever kept, so a linear scan over a stack
	// buffer beats a map for the small L in use; a larger L takes one heap
	// slice for the whole call. The schema is walked in place because
	// SensitiveIndexes allocates.
	var buf [8]uint32
	seen := buf[:0]
	if c.L > len(buf) {
		seen = make([]uint32, 0, c.L)
	}
	schema := rel.Schema()
	for a := 0; a < schema.Len(); a++ {
		if schema.Attr(a).Role != relation.Sensitive {
			continue
		}
		seen = seen[:0]
		for _, row := range group {
			if code := rel.Code(row, a); !slices.Contains(seen, code) {
				if seen = append(seen, code); len(seen) >= c.L {
					break
				}
			}
		}
		if len(seen) < c.L {
			return false
		}
	}
	return true
}

// Monotone implements Criterion.
func (c DistinctLDiversity) Monotone() bool { return true }

// TCloseness requires the total variation distance between each group's
// sensitive-value distribution and the relation-wide distribution to be at
// most T, for every sensitive attribute. Build it with NewTCloseness so the
// global distributions are computed once.
type TCloseness struct {
	T float64
	// global[i] is the relation-wide value distribution of the i-th
	// sensitive attribute (parallel to sensAttrs).
	sensAttrs []int
	global    []map[uint32]float64
}

// NewTCloseness captures rel's sensitive-value distributions for later
// group checks against threshold t.
func NewTCloseness(rel *relation.Relation, t float64) *TCloseness {
	c := &TCloseness{T: t, sensAttrs: rel.Schema().SensitiveIndexes()}
	n := float64(rel.Len())
	for _, a := range c.sensAttrs {
		dist := make(map[uint32]float64)
		for code, cnt := range rel.ValueFrequencies(a) {
			dist[code] = float64(cnt) / n
		}
		c.global = append(c.global, dist)
	}
	return c
}

// Name implements Criterion.
func (c *TCloseness) Name() string { return fmt.Sprintf("%.2f-closeness", c.T) }

// Holds implements Criterion.
func (c *TCloseness) Holds(rel *relation.Relation, group []int) bool {
	if len(group) == 0 {
		return true
	}
	for i, a := range c.sensAttrs {
		local := make(map[uint32]float64, len(group))
		inc := 1 / float64(len(group))
		for _, row := range group {
			local[rel.Code(row, a)] += inc
		}
		// Total variation distance: ½ Σ |p − q|.
		d := 0.0
		for code, q := range c.global[i] {
			p := local[code]
			if p > q {
				d += p - q
			} else {
				d += q - p
			}
			delete(local, code)
		}
		for _, p := range local {
			d += p
		}
		if d/2 > c.T {
			return false
		}
	}
	return true
}

// Monotone implements Criterion.
func (c *TCloseness) Monotone() bool { return false }

// Composite requires all member criteria.
type Composite []Criterion

// Name implements Criterion.
func (c Composite) Name() string {
	s := ""
	for i, m := range c {
		if i > 0 {
			s += " + "
		}
		s += m.Name()
	}
	return s
}

// Holds implements Criterion.
func (c Composite) Holds(rel *relation.Relation, group []int) bool {
	for _, m := range c {
		if !m.Holds(rel, group) {
			return false
		}
	}
	return true
}

// Monotone implements Criterion.
func (c Composite) Monotone() bool {
	for _, m := range c {
		if !m.Monotone() {
			return false
		}
	}
	return true
}

// Satisfies reports whether every QI-group of rel satisfies the criterion,
// returning the first violating group otherwise.
func Satisfies(rel *relation.Relation, c Criterion) (bool, []int) {
	for _, group := range rel.QIGroups() {
		if !c.Holds(rel, group) {
			return false, group
		}
	}
	return true, nil
}
