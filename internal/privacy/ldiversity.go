package privacy

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"diva/internal/relation"
)

// valueCount is how many rows of a group hold one code.
type valueCount struct {
	code uint32
	n    int
}

// countValues counts the codes of attribute a over the group into counts'
// storage, ordered by code. The entropy and recursive criteria pass a
// stack buffer, so a group with few distinct values allocates nothing; one
// with more grows the slice on the heap.
func countValues(rel *relation.Relation, group []int, a int, counts []valueCount) []valueCount {
	counts = counts[:0]
	for _, row := range group {
		code := rel.Code(row, a)
		i, found := slices.BinarySearchFunc(counts, code, func(vc valueCount, code uint32) int { return cmp.Compare(vc.code, code) })
		if found {
			counts[i].n++
		} else {
			counts = slices.Insert(counts, i, valueCount{code: code, n: 1})
		}
	}
	return counts
}

// EntropyLDiversity requires, for every sensitive attribute, the entropy of
// the group's sensitive-value distribution to be at least log(L):
//
//	−Σ p(v)·log p(v) ≥ log L
//
// (Machanavajjhala et al., ICDE 2006, Definition 3.1). It is strictly
// stronger than distinct l-diversity with the same L: entropy log L needs
// at least L distinct values *and* a reasonably flat distribution over
// them.
type EntropyLDiversity struct{ L int }

// Name implements Criterion.
func (c EntropyLDiversity) Name() string { return fmt.Sprintf("entropy %d-diversity", c.L) }

// Holds implements Criterion. Entropy is summed over the values in code
// order, so a group's verdict never depends on its row order.
func (c EntropyLDiversity) Holds(rel *relation.Relation, group []int) bool {
	if c.L <= 1 {
		return true
	}
	if len(group) < c.L {
		return false
	}
	threshold := math.Log(float64(c.L))
	n := float64(len(group))
	var buf [32]valueCount
	schema := rel.Schema()
	for a := 0; a < schema.Len(); a++ {
		if schema.Attr(a).Role != relation.Sensitive {
			continue
		}
		entropy := 0.0
		for _, vc := range countValues(rel, group, a, buf[:0]) {
			p := float64(vc.n) / n
			entropy -= p * math.Log(p)
		}
		// Guard against float rounding at exact uniformity: entropy of a
		// perfectly uniform L-value distribution must pass log L.
		if entropy+1e-12 < threshold {
			return false
		}
	}
	return true
}

// Monotone implements Criterion. Entropy l-diversity is not monotone:
// absorbing many tuples of one sensitive value lowers the entropy below
// log L even if the group satisfied it before.
func (c EntropyLDiversity) Monotone() bool { return false }

// RecursiveCLDiversity is recursive (c, l)-diversity (Machanavajjhala et
// al., Definition 3.2): with sensitive-value counts of a group sorted
// descending as r1 ≥ r2 ≥ …, the group qualifies iff
//
//	r1 < C · (r_l + r_{l+1} + … + r_m)
//
// for every sensitive attribute — the most frequent sensitive value must
// not dominate the tail beyond factor C.
type RecursiveCLDiversity struct {
	C float64
	L int
}

// Name implements Criterion.
func (c RecursiveCLDiversity) Name() string {
	return fmt.Sprintf("recursive (%.1f, %d)-diversity", c.C, c.L)
}

// Holds implements Criterion.
func (c RecursiveCLDiversity) Holds(rel *relation.Relation, group []int) bool {
	if c.L <= 1 {
		return true
	}
	var buf [32]valueCount
	schema := rel.Schema()
	for a := 0; a < schema.Len(); a++ {
		if schema.Attr(a).Role != relation.Sensitive {
			continue
		}
		counts := countValues(rel, group, a, buf[:0])
		if len(counts) < c.L {
			return false
		}
		slices.SortFunc(counts, func(x, y valueCount) int { return cmp.Compare(y.n, x.n) })
		tail := 0
		for _, vc := range counts[c.L-1:] {
			tail += vc.n
		}
		if float64(counts[0].n) >= c.C*float64(tail) {
			return false
		}
	}
	return true
}

// Monotone implements Criterion. Recursive (c, l)-diversity is not
// monotone for the same reason as the entropy variant.
func (c RecursiveCLDiversity) Monotone() bool { return false }
