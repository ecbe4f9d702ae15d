package anon

import (
	"sort"

	"diva/internal/privacy"
	"diva/internal/relation"
)

// referenceMondrian is the comparison-sort Mondrian the counting-sort
// implementation replaced, kept verbatim as the differential oracle: each
// node copies its partition, orders the QI attributes by a map-built width,
// and stably sorts the copy with a closure over Relation.Code and
// NumericValue. It runs sequentially.
func referenceMondrian(crit privacy.Criterion, rel *relation.Relation, rows []int, k int) [][]int {
	d := newDistancer(rel, rows)
	part := make([]int, len(rows))
	copy(part, rows)
	return refSplit(crit, rel, d, part, k)
}

func refSplit(crit privacy.Criterion, rel *relation.Relation, d *distancer, part []int, k int) [][]int {
	if len(part) >= 2*k {
		for _, ai := range refAttrsByWidth(rel, d, part) {
			left, right, ok := refCut(rel, d, part, ai)
			if !ok || len(left) < k || len(right) < k {
				continue
			}
			if crit != nil && (!crit.Holds(rel, left) || !crit.Holds(rel, right)) {
				continue
			}
			return append(refSplit(crit, rel, d, left, k), refSplit(crit, rel, d, right, k)...)
		}
	}
	return [][]int{part}
}

func refAttrsByWidth(rel *relation.Relation, d *distancer, part []int) []int {
	type aw struct {
		idx   int
		width float64
	}
	ws := make([]aw, 0, len(d.qi))
	for i, a := range d.qi {
		var width float64
		if d.numeric[i] {
			lo, hi, ok := rel.NumericRange(a, part)
			if ok {
				width = (hi - lo) / d.span[i]
			}
		} else {
			distinct := make(map[uint32]struct{})
			for _, row := range part {
				distinct[rel.Code(row, a)] = struct{}{}
			}
			width = float64(len(distinct)-1) / float64(max(rel.Dict(a).Cardinality()-1, 1))
		}
		ws = append(ws, aw{idx: i, width: width})
	}
	sort.SliceStable(ws, func(x, y int) bool { return ws[x].width > ws[y].width })
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.idx
	}
	return out
}

func refCut(rel *relation.Relation, d *distancer, part []int, ai int) (left, right []int, ok bool) {
	a := d.qi[ai]
	sorted := make([]int, len(part))
	copy(sorted, part)
	if d.numeric[ai] {
		sort.SliceStable(sorted, func(x, y int) bool {
			vx, _ := rel.NumericValue(a, rel.Code(sorted[x], a))
			vy, _ := rel.NumericValue(a, rel.Code(sorted[y], a))
			return vx < vy
		})
	} else {
		freq := make(map[uint32]int)
		for _, row := range part {
			freq[rel.Code(row, a)]++
		}
		sort.SliceStable(sorted, func(x, y int) bool {
			cx, cy := rel.Code(sorted[x], a), rel.Code(sorted[y], a)
			if freq[cx] != freq[cy] {
				return freq[cx] > freq[cy]
			}
			return cx < cy
		})
	}
	mid := len(sorted) / 2
	cut := -1
	for i := mid; i < len(sorted); i++ {
		if rel.Code(sorted[i], a) != rel.Code(sorted[i-1], a) {
			cut = i
			break
		}
	}
	if cut < 0 {
		for i := mid; i >= 1; i-- {
			if rel.Code(sorted[i], a) != rel.Code(sorted[i-1], a) {
				cut = i
				break
			}
		}
	}
	if cut <= 0 || cut >= len(sorted) {
		return nil, nil, false
	}
	return sorted[:cut], sorted[cut:], true
}
