package cluster

import (
	"context"
	"sort"

	"diva/internal/constraint"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// refEnumerator is the comparison-sort enumerator the key-table
// implementation replaced, kept as the differential oracle: it copies the
// pool and sorts the copy with a closure over Relation.Row, and every
// Candidates call reads the available rows' codes and target matches from
// the relation. It shares only windowSizes, which never touches the pool
// layout, with the production path, and copies every returned cluster on
// its own.
type refEnumerator struct {
	rel  *relation.Relation
	b    *constraint.Bound
	opts Options
	qi   []int
	// sorted is Iσ ordered lexicographically by QI code vector, so similar
	// tuples are adjacent and contiguous windows are cheap clusters.
	sorted []int
}

func newRefEnumerator(rel *relation.Relation, b *constraint.Bound, opts Options) *refEnumerator {
	opts = opts.withDefaults()
	e := &refEnumerator{rel: rel, b: b, opts: opts, qi: rel.Schema().QIIndexes()}
	target := b.TargetQIRows(rel)
	e.sorted = make([]int, len(target))
	copy(e.sorted, target)
	sort.Slice(e.sorted, func(x, y int) bool {
		rx, ry := rel.Row(e.sorted[x]), rel.Row(e.sorted[y])
		for _, a := range e.qi {
			if rx[a] != ry[a] {
				return rx[a] < ry[a]
			}
		}
		return e.sorted[x] < e.sorted[y]
	})
	return e
}

func (e *refEnumerator) TargetSize() int { return len(e.sorted) }

func (e *refEnumerator) Candidates(ctx context.Context, used *rowset.Set) []Clustering {
	var out []Clustering
	if e.b.Lower == 0 {
		out = append(out, Clustering{})
	}

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	avail := e.sorted
	if used != nil {
		avail = nil
		for _, row := range e.sorted {
			if !used.Contains(row) {
				avail = append(avail, row)
			}
		}
	}

	m := len(avail)

	fm := make([]int, m+1)
	for i, row := range avail {
		fm[i+1] = fm[i]
		if e.b.Matches(e.rel.Row(row)) {
			fm[i+1]++
		}
	}
	mixed := fm[m] < m
	preserved := func(lo, hi int) int { return fm[hi] - fm[lo] }

	minSize := e.b.Lower
	if minSize < e.opts.K {
		minSize = e.opts.K
	}
	maxSize := e.b.Upper
	if mixed {
		maxSize = e.b.Upper + e.b.Upper + e.opts.K
	}
	if maxSize > m {
		maxSize = m
	}
	if minSize > maxSize || fm[m] < e.b.Lower {
		return out
	}

	chg := make([][]int32, len(e.qi))
	for ai, a := range e.qi {
		col := make([]int32, m)
		for i := 1; i < m; i++ {
			col[i] = col[i-1]
			if e.rel.Code(avail[i], a) != e.rel.Code(avail[i-1], a) {
				col[i]++
			}
		}
		chg[ai] = col
	}
	cost := func(lo, hi int) int {
		size := hi - lo
		c := 0
		for ai := range e.qi {
			if chg[ai][hi-1] != chg[ai][lo] {
				c += size
			}
		}
		return c
	}

	var cands []scored
	rawBudget := e.opts.MaxCandidates * 4

	inRange := func(lo, hi int) bool {
		p := preserved(lo, hi)
		return p >= e.b.Lower && p <= e.b.Upper
	}
	sizes := windowSizes(nil, minSize, maxSize, e.opts.MaxWindowSizes)
	for _, s := range sizes {
		if canceled() {
			return out
		}
		nWindows := m - s + 1
		if nWindows <= 0 {
			continue
		}
		perSize := rawBudget / len(sizes)
		if perSize < 1 {
			perSize = 1
		}
		stride := 1
		if nWindows > perSize {
			stride = nWindows / perSize
		}
		for lo := 0; lo+s <= m; lo += stride {
			if !inRange(lo, lo+s) {
				continue
			}
			cands = append(cands, scored{lo1: lo, hi1: lo + s, cost: cost(lo, lo+s)})
			if len(cands) >= rawBudget {
				break
			}
		}
		if len(cands) >= rawBudget {
			break
		}
	}

	if mixed && maxSize >= minSize {
		budget := e.opts.MaxCandidates
		for i := 0; i < m && budget > 0; i++ {
			if fm[i+1] == fm[i] {
				continue
			}
			lo := i - minSize/2
			if lo+minSize > m {
				lo = m - minSize
			}
			if lo < 0 {
				lo = 0
			}
			if inRange(lo, lo+minSize) {
				cands = append(cands, scored{lo1: lo, hi1: lo + minSize, cost: cost(lo, lo+minSize)})
				budget--
			}
		}
	}

	if maxSize >= 2*e.opts.K && m >= 2*e.opts.K {
		base := e.baseWindows(m, cost)
		budget := e.opts.MaxCandidates
	pairing:
		for i := 0; i < len(base); i++ {
			if canceled() {
				break pairing
			}
			for j := i + 1; j < len(base); j++ {
				wi, wj := base[i], base[j]
				if wi.hi1 > wj.lo1 && wj.hi1 > wi.lo1 {
					continue
				}
				total := preserved(wi.lo1, wi.hi1) + preserved(wj.lo1, wj.hi1)
				if total < e.b.Lower || total > e.b.Upper {
					continue
				}
				cands = append(cands, scored{
					lo1: wi.lo1, hi1: wi.hi1,
					lo2: wj.lo1, hi2: wj.hi1,
					cost: wi.cost + wj.cost,
				})
				budget--
				if budget == 0 {
					break pairing
				}
			}
		}
	}

	sort.SliceStable(cands, func(x, y int) bool {
		if cands[x].cost != cands[y].cost {
			return cands[x].cost < cands[y].cost
		}
		sx := (cands[x].hi1 - cands[x].lo1) + (cands[x].hi2 - cands[x].lo2)
		sy := (cands[y].hi1 - cands[y].lo1) + (cands[y].hi2 - cands[y].lo2)
		return sx < sy
	})

	need := len(cands)
	if need > e.opts.MaxCandidates {
		need = e.opts.MaxCandidates
	}
	grown := make([]Clustering, len(out), len(out)+need)
	copy(grown, out)
	out = grown
	seen := make(map[[4]int]bool)
	for _, c := range cands {
		key := [4]int{c.lo1, c.hi1, c.lo2, c.hi2}
		if seen[key] {
			continue
		}
		seen[key] = true
		nc := 1
		if c.hi2 > 0 {
			nc = 2
		}
		s := make(Clustering, nc)
		s[0] = append([]int(nil), avail[c.lo1:c.hi1]...)
		if c.hi2 > 0 {
			s[1] = append([]int(nil), avail[c.lo2:c.hi2]...)
		}
		if crit := e.opts.Criterion; crit != nil && !clusteringHolds(e.rel, crit, s) {
			continue
		}
		out = append(out, s)
		if len(out) >= e.opts.MaxCandidates {
			break
		}
	}
	return out
}

func (e *refEnumerator) baseWindows(m int, cost func(lo, hi int) int) []scoredWindow {
	k := e.opts.K
	nWindows := m - k + 1
	if nWindows <= 0 {
		return nil
	}
	budget := e.opts.MaxCandidates
	stride := 1
	if nWindows > budget*2 {
		stride = nWindows / (budget * 2)
	}
	var ws []scoredWindow
	for lo := 0; lo+k <= m; lo += stride {
		ws = append(ws, scoredWindow{lo1: lo, hi1: lo + k, cost: cost(lo, lo+k)})
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].cost != ws[j].cost {
			return ws[i].cost < ws[j].cost
		}
		return ws[i].lo1 < ws[j].lo1
	})
	if len(ws) > budget {
		ws = ws[:budget]
	}
	return ws
}

// clusteringHolds reports whether every cluster satisfies the criterion.
func clusteringHolds(rel *relation.Relation, crit privacy.Criterion, s Clustering) bool {
	for _, c := range s {
		if !crit.Holds(rel, c) {
			return false
		}
	}
	return true
}
