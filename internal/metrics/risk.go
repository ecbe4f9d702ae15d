package metrics

import (
	"sort"

	"diva/internal/relation"
)

// Risk summarizes re-identification risk of a published relation under the
// prosecutor model: an attacker who knows a target individual is in the
// data re-identifies them with probability 1/|QI-group|.
type Risk struct {
	// MaxRisk is the highest per-tuple risk (1 / smallest group). 1 means
	// some tuple is unique on its QI values.
	MaxRisk float64
	// AvgRisk is the mean per-tuple risk, which equals #groups / #tuples.
	AvgRisk float64
	// UniqueTuples counts tuples alone in their QI-group.
	UniqueTuples int
}

// ReidentificationRisk computes the prosecutor-model risk profile of rel.
// An empty relation reports zero risk.
func ReidentificationRisk(rel *relation.Relation) Risk {
	return GroupsRisk(rel.QIGroups(), rel.Len())
}

// GroupsRisk is ReidentificationRisk over the QI-groups of n tuples, for
// callers that already hold them.
func GroupsRisk(groups [][]int, n int) Risk {
	if n == 0 || len(groups) == 0 {
		return Risk{}
	}
	r := Risk{AvgRisk: float64(len(groups)) / float64(n)}
	for _, g := range groups {
		risk := 1 / float64(len(g))
		if risk > r.MaxRisk {
			r.MaxRisk = risk
		}
		if len(g) == 1 {
			r.UniqueTuples++
		}
	}
	return r
}

// TuplesAtRisk returns how many tuples have per-tuple re-identification
// risk above the threshold (i.e. lie in QI-groups smaller than
// 1/threshold).
func TuplesAtRisk(rel *relation.Relation, threshold float64) int {
	if threshold <= 0 {
		return rel.Len()
	}
	n := 0
	for _, g := range rel.QIGroups() {
		if 1/float64(len(g)) > threshold {
			n += len(g)
		}
	}
	return n
}

// GroupSizeBucket is one row of a QI-group size histogram.
type GroupSizeBucket struct {
	Size   int // group size
	Groups int // number of groups of that size
	Tuples int // tuples covered
}

// GroupSizeHistogram returns the QI-group size distribution, ascending by
// size.
func GroupSizeHistogram(rel *relation.Relation) []GroupSizeBucket {
	return GroupsSizeHistogram(rel.QIGroups())
}

// GroupsSizeHistogram is GroupSizeHistogram over QI-groups the caller
// already holds.
func GroupsSizeHistogram(groups [][]int) []GroupSizeBucket {
	counts := make(map[int]int)
	for _, g := range groups {
		counts[len(g)]++
	}
	out := make([]GroupSizeBucket, 0, len(counts))
	for size, groups := range counts {
		out = append(out, GroupSizeBucket{Size: size, Groups: groups, Tuples: size * groups})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	return out
}

// AttributeLoss reports suppression per QI attribute: attribute name and
// the number (and fraction) of suppressed cells in that column.
type AttributeLoss struct {
	Attr       string
	Suppressed int
	Fraction   float64
}

// PerAttributeLoss breaks SuppressionLoss down by QI attribute, in schema
// order.
func PerAttributeLoss(rel *relation.Relation) []AttributeLoss {
	schema := rel.Schema()
	var out []AttributeLoss
	for _, a := range schema.QIIndexes() {
		n := 0
		for i := 0; i < rel.Len(); i++ {
			if rel.IsSuppressed(i, a) {
				n++
			}
		}
		frac := 0.0
		if rel.Len() > 0 {
			frac = float64(n) / float64(rel.Len())
		}
		out = append(out, AttributeLoss{Attr: schema.Attr(a).Name, Suppressed: n, Fraction: frac})
	}
	return out
}
