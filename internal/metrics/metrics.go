// Package metrics implements the evaluation metrics of the paper's §4:
// suppression-based information loss, the Bayardo–Agrawal discernibility
// metric disc(R′, k), a normalized accuracy in [0, 1], and verifiers for
// k-anonymity and the R ⊑ R′ suppression relationship.
package metrics

import (
	"fmt"

	"diva/internal/relation"
)

// SuppressionLoss returns the number of suppressed QI cells (★s) in rel:
// the paper's primary information-loss measure (Definition 2.2).
func SuppressionLoss(rel *relation.Relation) int {
	qi := rel.Schema().QIIndexes()
	loss := 0
	for i := 0; i < rel.Len(); i++ {
		for _, a := range qi {
			if rel.IsSuppressed(i, a) {
				loss++
			}
		}
	}
	return loss
}

// Accuracy returns the fraction of QI cells preserved (not suppressed), in
// [0, 1]. A relation with no suppression has accuracy 1; a fully suppressed
// relation has accuracy 0. This is the bounded per-cell normalization of the
// paper's information-loss measure; the harness reports it alongside the
// discernibility penalty.
func Accuracy(rel *relation.Relation) float64 {
	qi := rel.Schema().QIIndexes()
	total := rel.Len() * len(qi)
	if total == 0 {
		return 1
	}
	return 1 - float64(SuppressionLoss(rel))/float64(total)
}

// Discernibility returns disc(R′, k): each tuple in a QI-group E of size
// |E| ≥ k is charged |E| (so the group contributes |E|²); each tuple in a
// group smaller than k — which a k-anonymizer must treat as fully
// suppressed or unpublishable — is charged |R′| (Bayardo & Agrawal, ICDE
// 2005).
func Discernibility(rel *relation.Relation, k int) int {
	return GroupsDiscernibility(rel.QIGroups(), rel.Len(), k)
}

// GroupsDiscernibility is disc(R′, k) over the QI-groups of n tuples, for
// callers that already hold them (relation.QIGroups).
func GroupsDiscernibility(groups [][]int, n, k int) int {
	penalty := 0
	for _, group := range groups {
		if len(group) >= k {
			penalty += len(group) * len(group)
		} else {
			penalty += len(group) * n
		}
	}
	return penalty
}

// IsKAnonymous reports whether every tuple of rel lies in a QI-group of at
// least k tuples (Definition 2.1). Every relation is 0- and 1-anonymous; an
// empty relation is k-anonymous for every k.
func IsKAnonymous(rel *relation.Relation, k int) bool {
	return k <= 1 || GroupsKAnonymous(rel.QIGroups(), k)
}

// GroupsKAnonymous reports whether every group holds at least k tuples: it
// is IsKAnonymous over QI-groups the caller already holds.
func GroupsKAnonymous(groups [][]int, k int) bool {
	for _, group := range groups {
		if len(group) < k {
			return false
		}
	}
	return true
}

// SmallestQIGroup returns the size of the smallest QI-group, or 0 for an
// empty relation.
func SmallestQIGroup(rel *relation.Relation) int {
	return smallestGroup(rel.QIGroups())
}

// smallestGroup returns the size of the smallest group, or 0 when there
// are none.
func smallestGroup(groups [][]int) int {
	smallest := 0
	for _, group := range groups {
		if smallest == 0 || len(group) < smallest {
			smallest = len(group)
		}
	}
	return smallest
}

// VerifySuppressionOf checks R ⊑ R′ up to tuple reordering: the anonymized
// relation must have the same cardinality as the original and admit a
// perfect matching between original and anonymized tuples where each
// anonymized tuple equals its original on every non-suppressed cell and
// only QI cells are suppressed (a ★ already in the original tuple may sit
// on any attribute). Identifier attributes are ignored.
//
// The check runs a greedy bipartite matching with backtracking; relations in
// this repository produce matchings quickly because anonymized tuples retain
// their sensitive values verbatim.
func VerifySuppressionOf(orig, anon *relation.Relation) error {
	if orig.Len() != anon.Len() {
		return fmt.Errorf("metrics: cardinality changed: %d original vs %d anonymized tuples", orig.Len(), anon.Len())
	}
	if !orig.Schema().Equal(anon.Schema()) {
		return fmt.Errorf("metrics: schemas differ")
	}
	schema := orig.Schema()
	var checked []int
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Role != relation.Identifier {
			checked = append(checked, i)
		}
	}

	// candidates[j] = original rows that anonymized row j could correspond to.
	n := orig.Len()
	candidates := make([][]int, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if couldSuppressTo(orig, i, anon, j, checked, schema) {
				candidates[j] = append(candidates[j], i)
			}
		}
		if len(candidates[j]) == 0 {
			return fmt.Errorf("metrics: anonymized tuple %d (%v) matches no original tuple", j, anon.Values(j))
		}
	}
	// Hopcroft–Karp would be overkill; use augmenting-path matching.
	matchOrig := make([]int, n) // original row -> anonymized row, -1 if free
	for i := range matchOrig {
		matchOrig[i] = -1
	}
	var try func(j int, seen []bool) bool
	try = func(j int, seen []bool) bool {
		for _, i := range candidates[j] {
			if seen[i] {
				continue
			}
			seen[i] = true
			if matchOrig[i] == -1 || try(matchOrig[i], seen) {
				matchOrig[i] = j
				return true
			}
		}
		return false
	}
	for j := 0; j < n; j++ {
		seen := make([]bool, n)
		if !try(j, seen) {
			return fmt.Errorf("metrics: no matching: anonymized tuple %d cannot be assigned an original tuple", j)
		}
	}
	return nil
}

// couldSuppressTo reports whether anonymized row j could be the suppressed
// image of original row i: every non-suppressed cell agrees, and suppressed
// cells occur only on QI attributes.
func couldSuppressTo(orig *relation.Relation, i int, anon *relation.Relation, j int, attrs []int, schema *relation.Schema) bool {
	for _, a := range attrs {
		ca := anon.Code(j, a)
		if ca == relation.StarCode {
			// Only QI cells may be suppressed, but a ★ the original
			// already holds is kept wherever it is.
			if schema.Attr(a).Role != relation.QI && orig.Code(i, a) != relation.StarCode {
				return false
			}
			continue
		}
		// Dictionaries may differ between the two relations; compare values.
		if anon.Value(j, a) != orig.Value(i, a) {
			return false
		}
	}
	return true
}

// Report summarizes an anonymized relation for the experiment harness.
type Report struct {
	Tuples         int
	K              int
	KAnonymous     bool
	SuppressedQI   int     // number of ★ QI cells
	Accuracy       float64 // preserved QI cell fraction
	Discernibility int
	QIGroups       int
	SmallestGroup  int
}

// Summarize computes a Report for rel at privacy level k from one grouping.
func Summarize(rel *relation.Relation, k int) Report {
	groups := rel.QIGroups()
	return Report{
		Tuples:         rel.Len(),
		K:              k,
		KAnonymous:     GroupsKAnonymous(groups, k),
		SuppressedQI:   SuppressionLoss(rel),
		Accuracy:       Accuracy(rel),
		Discernibility: GroupsDiscernibility(groups, rel.Len(), k),
		QIGroups:       len(groups),
		SmallestGroup:  smallestGroup(groups),
	}
}

// String renders the report as a single line.
func (r Report) String() string {
	return fmt.Sprintf("tuples=%d k=%d k-anonymous=%t stars=%d accuracy=%.4f disc=%d groups=%d smallest=%d",
		r.Tuples, r.K, r.KAnonymous, r.SuppressedQI, r.Accuracy, r.Discernibility, r.QIGroups, r.SmallestGroup)
}
