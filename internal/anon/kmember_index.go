package anon

import "diva/internal/relation"

// This file implements the signature index that serves KMember's greedy
// selections without an O(n) scan over rows per step.
//
// The key observation is that both greedy selection criteria are functions
// of a row's QI signature alone: rows with identical QI code vectors are
// interchangeable for the seed distance (dist depends only on codes) and for
// the information-loss delta (clusterSummary.addCost depends only on which
// uniform attributes the row disagrees with). Grouping the n rows into g ≤ n
// signature groups turns every greedy step from a scan over rows into a scan
// over signatures, and dictionary-code posting lists plus admissible
// mismatch lower bounds prune most signatures before their full cost is
// computed. Ties are broken toward the smallest live row id, which makes the
// output deterministic for a fixed input.

// sigGroup is one QI signature: the projected code vector and the rows
// carrying it, in ascending id order. rows[next:] are still live.
type sigGroup struct {
	codes []uint32 // QI-projected codes, parallel to sigIndex.qi
	rows  []int    // ascending row ids
	next  int      // rows[:next] are consumed
}

func (g *sigGroup) live() bool { return g.next < len(g.rows) }
func (g *sigGroup) front() int { return g.rows[g.next] }

type postKey struct {
	attr int // position into qi
	code uint32
}

// sigIndex is the signature-level view of the live rows: groups, per
// (attribute, code) posting lists over group ids (the dictionary-frequency
// candidate index), and a lazy min-heap of live group fronts for the
// all-signatures-tie case.
type sigIndex struct {
	qi      []int
	groups  []*sigGroup
	posting map[postKey][]int
	liveN   int

	// frontHeap is a lazy binary min-heap of (row, group) pairs ordered by
	// row. An entry is stale when its group is exhausted or its row is no
	// longer the group's front; stale entries are dropped on pop.
	frontHeap []frontEntry
}

type frontEntry struct {
	row int
	sig int
}

// buildSigIndex takes the signature groups from relation.GroupBy: numbered
// by first appearance, each keeping its rows in input order.
func buildSigIndex(rel *relation.Relation, qi []int, rows []int) *sigIndex {
	idx := &sigIndex{
		qi:      qi,
		posting: make(map[postKey][]int),
		liveN:   len(rows),
	}
	for gi, grows := range rel.GroupBy(qi, rows) {
		codes := make([]uint32, len(qi))
		for i, a := range qi {
			codes[i] = rel.Code(grows[0], a)
		}
		idx.groups = append(idx.groups, &sigGroup{codes: codes, rows: grows})
		for i, c := range codes {
			k := postKey{attr: i, code: c}
			idx.posting[k] = append(idx.posting[k], gi)
		}
		idx.heapPush(frontEntry{row: grows[0], sig: gi})
	}
	return idx
}

// pop consumes and returns the front row of group gi, keeping the front
// heap current.
func (idx *sigIndex) pop(gi int) int {
	g := idx.groups[gi]
	r := g.front()
	g.next++
	idx.liveN--
	if g.live() {
		idx.heapPush(frontEntry{row: g.front(), sig: gi})
	}
	return r
}

// argmaxDist returns the live group maximizing the QI distance to the given
// projected code vector, breaking ties toward the smallest front row.
func (idx *sigIndex) argmaxDist(d *distancer, from []uint32) int {
	best, bestDist, bestRow := -1, -1.0, -1
	for gi, g := range idx.groups {
		if !g.live() {
			continue
		}
		dist := d.distQI(from, g.codes)
		if dist > bestDist || (dist == bestDist && g.front() < bestRow) {
			best, bestDist, bestRow = gi, dist, g.front()
		}
	}
	return best
}

// argminAddCost returns the live group whose front row increases the
// cluster's suppression cost least, breaking ties toward the smallest front
// row. The cost of adding a signature is
//
//	nonUniform + (size+1) × mismatches
//
// where nonUniform counts the cluster's already non-uniform QI attributes
// (each costs one extra cell regardless of the signature), and mismatches
// counts the still-uniform attributes the signature disagrees with (each
// suppresses a whole column of size+1 cells). Since every mismatch adds at
// least two cells, any signature with zero mismatches is a global argmin:
// the fast path intersects the posting lists of the cluster's uniform
// (attribute, code) pairs — starting from the rarest code, i.e. the
// shortest list — and only when no live signature matches does the full
// scan run, pruning each candidate as soon as its partial mismatch count
// exceeds the best found (the partial count is a lower bound on the final
// cost, so the prune never discards the true argmin).
func (idx *sigIndex) argminAddCost(cs *clusterSummary) int {
	uniform := make([]int, 0, len(cs.qi))
	for i := range cs.qi {
		if cs.uniform[i] {
			uniform = append(uniform, i)
		}
	}

	if len(uniform) == 0 {
		// Every live signature costs exactly len(qi); the tie-break alone
		// decides. The lazy front heap yields the smallest live row.
		gi, _ := idx.minFront()
		return gi
	}

	// Fast path: a signature agreeing with every uniform attribute. Scan the
	// shortest posting list among the uniform (attribute, code) pairs.
	shortest := idx.posting[postKey{attr: uniform[0], code: cs.code[uniform[0]]}]
	for _, i := range uniform[1:] {
		if l := idx.posting[postKey{attr: i, code: cs.code[i]}]; len(l) < len(shortest) {
			shortest = l
		}
	}
	best, bestRow := -1, -1
	for _, gi := range shortest {
		g := idx.groups[gi]
		if !g.live() {
			continue
		}
		if best >= 0 && g.front() >= bestRow {
			continue
		}
		match := true
		for _, i := range uniform {
			if g.codes[i] != cs.code[i] {
				match = false
				break
			}
		}
		if match {
			best, bestRow = gi, g.front()
		}
	}
	if best >= 0 {
		return best
	}

	// Full scan with the admissible mismatch bound: a candidate is pruned
	// the moment its partial mismatch count exceeds the best complete count
	// (equal counts must finish, because the row tie-break still applies).
	bestMM := len(uniform) + 1
	for gi, g := range idx.groups {
		if !g.live() {
			continue
		}
		mm := 0
		for _, i := range uniform {
			if g.codes[i] != cs.code[i] {
				mm++
				if mm > bestMM {
					break
				}
			}
		}
		if mm > bestMM {
			continue
		}
		if mm < bestMM || g.front() < bestRow {
			best, bestMM, bestRow = gi, mm, g.front()
		}
	}
	return best
}

// minFront returns the live group holding the smallest live row.
func (idx *sigIndex) minFront() (int, bool) {
	for len(idx.frontHeap) > 0 {
		top := idx.frontHeap[0]
		g := idx.groups[top.sig]
		if g.live() && g.front() == top.row {
			return top.sig, true
		}
		idx.heapPop()
	}
	return -1, false
}

func (idx *sigIndex) heapPush(e frontEntry) {
	h := append(idx.frontHeap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].row <= h[i].row {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	idx.frontHeap = h
}

func (idx *sigIndex) heapPop() {
	h := idx.frontHeap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].row < h[small].row {
			small = l
		}
		if r < n && h[r].row < h[small].row {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	idx.frontHeap = h
}

// distQI returns the distance between two QI-projected code vectors
// (parallel to d.qi), matching dist on the underlying rows.
func (d *distancer) distQI(x, y []uint32) float64 {
	total := 0.0
	for i, a := range d.qi {
		cx, cy := x[i], y[i]
		if cx == cy {
			continue
		}
		if cx == relation.StarCode || cy == relation.StarCode {
			total++
			continue
		}
		if d.numeric[i] {
			vx, okx := d.rel.NumericValue(a, cx)
			vy, oky := d.rel.NumericValue(a, cy)
			if okx && oky {
				diff := vx - vy
				if diff < 0 {
					diff = -diff
				}
				total += diff / d.span[i]
				continue
			}
		}
		total++
	}
	return total
}
