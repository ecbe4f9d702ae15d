// Package cluster implements the Clusterings(σ, R) routine of the DIVA
// algorithm: enumerating candidate clusterings whose suppression satisfies a
// single diversity constraint (Definition 3.2 of the paper).
//
// A candidate clustering S for σ = (X[t], λl, λr) consists of disjoint
// clusters of tuples drawn from the target set Iσ (the tuples of R holding
// the target values, so the target values survive suppression), each cluster
// holding at least k tuples (so it becomes a QI-group), with the total
// number of tuples — the preserved occurrences — within [λl, λr].
//
// The full candidate space is exponential; following the paper's polynomial
// bound, candidates are enumerated as contiguous windows over Iσ sorted by
// QI similarity, plus pairwise compositions of disjoint windows, capped at a
// configurable budget and ordered by increasing suppression cost so the
// search tries cheap clusterings first. NewEnumerators takes every
// constraint's pool from one indexed pass over R (constraint.Pools), not
// from one scan per constraint. The QI-similarity order is then computed
// once per constraint by stable counting passes over a compact key table of
// the pool's QI codes, not by comparison, and every enumeration afterwards
// reads only that table.
//
// The coloring search recomputes candidates as rows are claimed by other
// constraints ("we update the candidate clusterings for their neighbors",
// Section 3.3): Enumerator.Candidates takes the bitset of rows already in
// use and enumerates over the remaining target rows only, so returned
// clusters never collide with active ones. Enumeration scratch buffers are
// pooled, and the winners are picked in that scratch, from a heap, before
// any row is copied out. Enumerator.Windows returns them as windows over
// the sorted pool in one allocation, which is what the search reads: it
// counts and bound-checks candidates from the key table and copies rows
// only for the clusters it assigns. Enumerator.Candidates returns the same
// list materialized, in exactly sized allocations.
package cluster

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"diva/internal/constraint"
	"diva/internal/par"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// Clustering is a set of disjoint clusters, each a slice of row indexes into
// the underlying relation. A cluster is a row *set*: clusters returned by
// Enumerator.Candidates hold their rows in enumeration (QI-similarity)
// order, and every consumer inside the engine — Fingerprint, the rowset
// operations, privacy criteria — is order-independent. The coloring search
// sorts a cluster once when it becomes active, so the merged clustering SΣ
// it returns is sorted at the API edge.
type Clustering [][]int

// Tuples returns the total number of tuples across all clusters.
func (s Clustering) Tuples() int {
	n := 0
	for _, c := range s {
		n += len(c)
	}
	return n
}

// Rows returns all row indexes across all clusters, sorted ascending.
func (s Clustering) Rows() []int {
	out := make([]int, 0, s.Tuples())
	for _, c := range s {
		out = append(out, c...)
	}
	slices.Sort(out)
	return out
}

// RowSet returns all row indexes across all clusters as a bitset over the
// universe [0, n).
func (s Clustering) RowSet(n int) *rowset.Set {
	set := rowset.New(n)
	for _, c := range s {
		set.AddSlice(c)
	}
	return set
}

// Fingerprint returns the canonical 64-bit identity of one cluster, in any
// row order, used for the "disjoint unless equal" consistency rule and for
// SΣ deduplication. It is the rowset Zobrist fingerprint: allocation-free,
// equal for equal row sets, colliding with probability ~2⁻⁶⁴.
func Fingerprint(c []int) uint64 { return rowset.Fingerprint(c) }

// DefaultMaxCandidates is the per-constraint candidate budget when
// Options.MaxCandidates is zero.
const DefaultMaxCandidates = 64

// Options bounds the candidate enumeration.
type Options struct {
	// K is the privacy parameter: every cluster must hold at least K tuples.
	K int
	// MaxCandidates caps the number of clusterings returned per constraint.
	// Zero means DefaultMaxCandidates.
	MaxCandidates int
	// MaxWindowSizes caps how many distinct cluster sizes are explored above
	// the minimum. Zero means the default of 8.
	MaxWindowSizes int
	// Criterion, when non-nil, is an additional privacy requirement every
	// candidate cluster must satisfy (e.g. distinct l-diversity); see the
	// privacy package.
	Criterion privacy.Criterion
	// Parallelism bounds the workers NewEnumerators builds on, its Pools
	// pass included: 0 means GOMAXPROCS, 1 builds on the caller. Passes
	// below the split grain (par.Grain) build on the caller regardless.
	// The enumerators are the same at every setting.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = DefaultMaxCandidates
	}
	if o.MaxWindowSizes == 0 {
		o.MaxWindowSizes = 8
	}
	if o.K < 1 {
		o.K = 1
	}
	return o
}

// Enumerator produces candidate clusterings for one constraint. It reads
// the relation only at construction: the pool rows' QI codes and target
// matches go into a key table of its own, and the pool is sorted by QI
// similarity with one stable counting pass per QI attribute, not by
// comparison. Every Candidates call filters the sorted pool against the
// rows currently in use and enumerates windows over the remainder, reading
// only the key table.
type Enumerator struct {
	rel  *relation.Relation
	b    *constraint.Bound
	opts Options
	// q is the number of QI attributes; a key-table row is q+1 words wide.
	q int
	// pool is the rows matching the target's QI components, in row order:
	// a cluster preserves occurrences iff it is uniform on those (mixed
	// targets count their sensitive components per row within the
	// cluster). Pool position p stands for row pool[p].
	pool []int
	// keys is the row-major key table by pool position: keys[p*(q+1)+ai] is
	// the code of QI attribute ai in row pool[p], and keys[p*(q+1)+q] is 1
	// iff that row holds the complete target (QI and sensitive components).
	keys []uint32
	// order is the pool positions sorted lexicographically by QI code
	// vector, ties by row index, so similar tuples are adjacent and
	// contiguous windows are cheap clusters.
	order []int32
	// col maps a schema attribute to its key-table column, −1 outside the
	// QI; it is shared by every enumerator of one NewEnumerators call.
	col []int
}

// NewEnumerator prepares candidate enumeration for b over rel. It is the
// one-bound case of NewEnumerators.
func NewEnumerator(rel *relation.Relation, b *constraint.Bound, opts Options) *Enumerator {
	return NewEnumerators(rel, []*constraint.Bound{b}, opts)[0]
}

// NewEnumerators prepares candidate enumeration for every bound over rel.
// The pools come from one constraint.Pools pass over rel, not one scan per
// bound; each enumerator then reads only its own pool rows. When the pools
// hold at least 2·par.Grain rows in all, the enumerators are built on up
// to opts.Parallelism workers, each taking the next unbuilt bound; an
// enumerator depends only on its own bound and pool.
func NewEnumerators(rel *relation.Relation, bounds []*constraint.Bound, opts Options) []*Enumerator {
	qi := rel.Schema().QIIndexes()
	opts = opts.withDefaults()
	col := make([]int, rel.Schema().Len())
	for a := range col {
		col[a] = -1
	}
	for ai, a := range qi {
		col[a] = ai
	}
	es := make([]*Enumerator, len(bounds))
	pools := constraint.Pools(rel, bounds, opts.Parallelism)
	rows := 0
	for _, pool := range pools {
		rows += len(pool)
	}
	if w := min(par.Workers(opts.Parallelism, rows), len(bounds)); w > 1 {
		var next atomic.Int64
		par.Do(w, func(int) {
			for i := int(next.Add(1) - 1); i < len(bounds); i = int(next.Add(1) - 1) {
				es[i] = newEnumerator(rel, bounds[i], pools[i], opts, qi, col)
			}
		})
		return es
	}
	for i, pool := range pools {
		es[i] = newEnumerator(rel, bounds[i], pool, opts, qi, col)
	}
	return es
}

// newEnumerator builds b's enumerator over its pool: the key table, then
// the QI-similarity order. qi is the schema's QI attributes and col their
// key-table columns by schema attribute.
func newEnumerator(rel *relation.Relation, b *constraint.Bound, pool []int, opts Options, qi, col []int) *Enumerator {
	q, w := len(qi), len(qi)+1
	e := &Enumerator{
		rel:   rel,
		b:     b,
		opts:  opts,
		q:     q,
		col:   col,
		pool:  pool,
		keys:  make([]uint32, len(pool)*w),
		order: make([]int32, len(pool)),
	}
	for p, row := range pool {
		codes, key := rel.Row(row), e.keys[p*w:(p+1)*w]
		for ai, a := range qi {
			key[ai] = codes[a]
		}
		if b.Matches(codes) {
			key[q] = 1
		}
		e.order[p] = int32(p)
	}
	e.sortPool(rel, qi)
	return e
}

// radixScratch is sortPool's working memory: the second buffer of the
// ping-pong pair and the bucket counts. Instances cycle through a sync.Pool
// so building a graph allocates only what each enumerator keeps.
type radixScratch struct {
	tmp   []int32
	count []int32
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// sortPool sorts e.order by the key table with one stable counting pass per
// QI attribute, last attribute first. order starts in pool-position order,
// which is row order, and a stable pass keeps the order of equal keys, so
// after the pass on attribute 0 the positions are ordered by codes
// lexicographically with row index breaking ties — the order a comparison
// sort on (codes, row) gives. A pass costs O(m + |dom|) for m pool rows and
// the attribute's dictionary size; a pass whose rows all hold one code is
// skipped, since it would leave the order unchanged.
func (e *Enumerator) sortPool(rel *relation.Relation, qi []int) {
	m, w := len(e.order), e.q+1
	if m < 2 {
		return
	}
	rs := radixPool.Get().(*radixScratch)
	defer radixPool.Put(rs)
	if cap(rs.tmp) < m {
		rs.tmp = make([]int32, m)
	}
	src, dst := e.order, rs.tmp[:m]
	for ai := e.q - 1; ai >= 0; ai-- {
		n := rel.Dict(qi[ai]).Len()
		if cap(rs.count) < n+1 {
			rs.count = make([]int32, n+1)
		}
		// count[c+1] counts code c; the prefix sums turn count[c] into the
		// first output slot of bucket c.
		count := rs.count[:n+1]
		clear(count)
		for _, p := range src {
			count[e.keys[int(p)*w+ai]+1]++
		}
		if int(count[e.keys[int(src[0])*w+ai]+1]) == m {
			continue
		}
		for c := 1; c <= n; c++ {
			count[c] += count[c-1]
		}
		for _, p := range src {
			c := e.keys[int(p)*w+ai]
			dst[count[c]] = p
			count[c]++
		}
		src, dst = dst, src
	}
	if &src[0] != &e.order[0] {
		copy(e.order, src)
	}
}

// TargetSize returns the number of rows in the candidate pool: |Iσ| for
// targets without sensitive components, the rows matching the QI components
// otherwise.
func (e *Enumerator) TargetSize() int { return len(e.pool) }

// Pool returns the candidate pool — the rows matching the target's QI
// components (constraint.Bound.TargetQIRows) — in row order. The slice is
// shared with the enumerator and must not be modified.
func (e *Enumerator) Pool() []int { return e.pool }

// TargetSet returns Iσ, the rows holding the complete target, as a bitset
// over rel's rows. It equals the bound's TargetSet over rel, read from the
// key table's match flags instead of a scan of rel.
func (e *Enumerator) TargetSet() *rowset.Set {
	s, w := rowset.New(e.rel.Len()), e.q+1
	for p, row := range e.pool {
		if e.keys[p*w+e.q] != 0 {
			s.Add(row)
		}
	}
	return s
}

// scored is one enumerated candidate before materialization: a window
// [lo1, hi1) and optionally a second disjoint window (hi2 == 0 means
// single-cluster), with its suppression cost and its enumeration index.
type scored struct {
	lo1, hi1 int
	lo2, hi2 int
	cost     int
	ord      int
}

// size is the candidate's tuple count.
func (c scored) size() int { return (c.hi1 - c.lo1) + (c.hi2 - c.lo2) }

// clusters is the candidate's cluster count.
func (c scored) clusters() int {
	if c.hi2 > 0 {
		return 2
	}
	return 1
}

// before is the result order: cheaper first, then fewer tuples, then
// earlier enumerated — the order a stable sort by (cost, size) gives.
func (c scored) before(o scored) bool {
	if c.cost != o.cost {
		return c.cost < o.cost
	}
	if cs, os := c.size(), o.size(); cs != os {
		return cs < os
	}
	return c.ord < o.ord
}

// siftDown restores the min-heap order (by before) below h[i].
func siftDown(h []scored, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

type scoredWindow struct {
	lo1, hi1 int
	cost     int
}

// scratch holds one enumeration's working buffers. Instances cycle through
// a sync.Pool (enumerators are shared across portfolio workers), so the
// steady-state enumeration allocates only what it returns. Nothing in a
// scratch may be referenced by the returned value.
type scratch struct {
	avail []int32
	fm    []int
	chg   [][]int32
	sizes []int
	cands []scored
	base  []scoredWindow
	seen  map[[4]int]bool
	// kept is the winners, in result order; rows holds one candidate's rows
	// while the criterion checks them.
	kept []scored
	rows []int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{seen: make(map[[4]int]bool, 64)} }}

// lead is 1 when the empty clustering leads every candidate list (the
// bound's lower bound is zero), else 0.
func (e *Enumerator) lead() int {
	if e.b.Lower == 0 {
		return 1
	}
	return 0
}

// pick is the enumeration kernel behind Candidates and Windows. It gathers
// the raw candidates over the target rows not in used and leaves the
// winners in sc.kept, in result order. It returns the available sorted pool
// positions the winners' windows index — e.order itself when no pool row is
// in use — and false when the enumeration ended before picking: no window
// can fit, or ctx was canceled while single windows were gathered.
func (e *Enumerator) pick(ctx context.Context, used *rowset.Set, sc *scratch) (avail []int32, picked bool) {
	sc.kept = sc.kept[:0]
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

	avail = e.order
	if used != nil {
		sc.avail = sc.avail[:0]
		for _, p := range e.order {
			if !used.Contains(e.pool[p]) {
				sc.avail = append(sc.avail, p)
			}
		}
		if len(sc.avail) < len(e.order) {
			avail = sc.avail
		}
	}

	m, q, w := len(avail), e.q, e.q+1
	keyAt := func(i int) []uint32 { p := int(avail[i]) * w; return e.keys[p : p+w] }

	// Prefix full-match counts: fm[i] counts rows in avail[:i] holding the
	// complete target (QI and sensitive components). A window [lo, hi)
	// preserves fm[hi] − fm[lo] occurrences. For targets without sensitive
	// components every pool row matches and preserved == window size.
	if cap(sc.fm) < m+1 {
		sc.fm = make([]int, m+1)
	}
	fm := sc.fm[:m+1]
	fm[0] = 0
	for i := range avail {
		fm[i+1] = fm[i] + int(keyAt(i)[q])
	}
	mixed := fm[m] < m
	preserved := func(lo, hi int) int { return fm[hi] - fm[lo] }

	minSize := e.b.Lower
	if minSize < e.opts.K {
		minSize = e.opts.K
	}
	maxSize := e.b.Upper
	if mixed {
		// Mixed targets dilute occurrences with non-matching pool rows, so
		// windows may exceed the upper bound in *size* while staying within
		// it in preserved occurrences.
		maxSize = e.b.Upper + e.b.Upper + e.opts.K
	}
	if maxSize > m {
		maxSize = m
	}
	if minSize > maxSize || fm[m] < e.b.Lower {
		return avail, false // only the empty clustering (if any) is possible
	}

	// Prefix change counts: chg[a][i] counts positions j in (0, i] where
	// avail[j] and avail[j-1] differ on QI attribute a. A window [lo, hi)
	// is uniform on a iff chg[a][hi-1] == chg[a][lo]. This makes window
	// suppression costs O(|QI|) each after an O(m·|QI|) scan.
	if cap(sc.chg) < q {
		sc.chg = make([][]int32, q)
	}
	chg := sc.chg[:q]
	for ai := range chg {
		if cap(chg[ai]) < m {
			chg[ai] = make([]int32, m)
		}
		chg[ai] = chg[ai][:m]
		if m > 0 {
			chg[ai][0] = 0
		}
	}
	for i := 1; i < m; i++ {
		prev, cur := keyAt(i-1), keyAt(i)
		for ai, col := range chg {
			col[i] = col[i-1]
			if cur[ai] != prev[ai] {
				col[i]++
			}
		}
	}
	sc.chg = chg
	// cost of window [lo, hi): per non-uniform QI attribute the whole
	// cluster loses that column.
	cost := func(lo, hi int) int {
		size := hi - lo
		c := 0
		for ai := range chg {
			if chg[ai][hi-1] != chg[ai][lo] {
				c += size
			}
		}
		return c
	}

	cands := sc.cands[:0]
	defer func() { sc.cands = cands[:0] }()
	rawBudget := e.opts.MaxCandidates * 4

	// Single-cluster windows, smallest (most minimal) sizes first.
	inRange := func(lo, hi int) bool {
		p := preserved(lo, hi)
		return p >= e.b.Lower && p <= e.b.Upper
	}
	sizes := windowSizes(sc.sizes, minSize, maxSize, e.opts.MaxWindowSizes)
	sc.sizes = sizes
	for _, s := range sizes {
		if canceled() {
			return avail, false
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

	// Mixed targets: stride sampling can skip past the sparse full-match
	// rows, so additionally anchor windows of the minimal size on each
	// matching row (capped by the budget).
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

	// Pairwise compositions: two disjoint windows of size k (the minimal
	// legal cluster) or larger whose total lands within [λl, λr]. These
	// matter when splitting one large cluster into two tighter ones reduces
	// suppression and give the search more options under conflicts.
	if maxSize >= 2*e.opts.K && m >= 2*e.opts.K {
		base := e.baseWindows(sc, m, cost)
		budget := e.opts.MaxCandidates
	pairing:
		for i := 0; i < len(base); i++ {
			if canceled() {
				break pairing
			}
			for j := i + 1; j < len(base); j++ {
				wi, wj := base[i], base[j]
				if wi.hi1 > wj.lo1 && wj.hi1 > wi.lo1 {
					continue // overlapping ranges
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

	// Pick the winners from a binary min-heap keyed by (cost, size,
	// enumeration index): popping yields the stable (cost, size) order, and
	// only as many pops as the budget needs are paid for. A winner is the
	// first occurrence of its window pair that the criterion accepts; the
	// budget is checked after each winner, so a list that leads with the
	// empty clustering still gets one. Only mixed targets' anchors can
	// repeat a window — single windows are distinct (start, size) pairs and
	// pairs are distinct pairs of distinct base windows — so only they pay
	// for de-duplication.
	for i := range cands {
		cands[i].ord = i
	}
	for i := len(cands)/2 - 1; i >= 0; i-- {
		siftDown(cands, i)
	}
	if mixed {
		clear(sc.seen)
	}
	kept, lead := sc.kept, e.lead()
	for h := cands; len(h) > 0; {
		c := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		if mixed {
			key := [4]int{c.lo1, c.hi1, c.lo2, c.hi2}
			if sc.seen[key] {
				continue
			}
			sc.seen[key] = true
		}
		if e.opts.Criterion != nil && !e.holds(sc, avail, c) {
			continue
		}
		kept = append(kept, c)
		if lead+len(kept) >= e.opts.MaxCandidates {
			break
		}
	}
	sc.kept = kept
	return avail, true
}

// Candidates enumerates candidate clusterings over the target rows not in
// used (used == nil means all target rows are available), ordered by
// increasing suppression cost, then by fewer tuples. The empty clustering
// is included (first) iff the constraint's lower bound is zero. An empty
// result means no clustering within the enumeration budget satisfies the
// constraint on the available rows.
//
// Each returned cluster is a row set in enumeration order (a window of the
// QI-sorted target rows), not sorted by row index: most candidates are only
// counted or fingerprinted, never read in order, so sorting is left to the
// caller that keeps one (the coloring search sorts a cluster on
// activation). The clusterings are owned by the caller, which may reorder
// the rows of any cluster in place. Windows returns the same list without
// copying any row.
//
// ctx bounds the enumeration: when it is canceled, Candidates returns early
// with whatever was enumerated so far (the coloring search re-checks the
// context at its next step and aborts the run). A nil ctx never cancels.
func (e *Enumerator) Candidates(ctx context.Context, used *rowset.Set) []Clustering {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	lead := e.lead()
	avail, picked := e.pick(ctx, used, sc)
	if !picked {
		if lead == 0 {
			return nil
		}
		return []Clustering{{}}
	}

	// Copy the winners into three exactly sized allocations owned by the
	// result: one row array, one cluster-header array and the result slice.
	// Each cluster is capped at its length, so no slack is shared between
	// clusters.
	nrows, nclusters := 0, 0
	for _, c := range sc.kept {
		nrows, nclusters = nrows+c.size(), nclusters+c.clusters()
	}
	res := make([]Clustering, lead+len(sc.kept))
	if lead == 1 {
		res[0] = Clustering{}
	}
	rows, clusters := make([]int, nrows), make([][]int, nclusters)
	for i, c := range sc.kept {
		nc := c.clusters()
		s := Clustering(clusters[:nc:nc])
		clusters = clusters[nc:]
		s[0], rows = e.take(rows, avail, c.lo1, c.hi1)
		if c.hi2 > 0 {
			s[1], rows = e.take(rows, avail, c.lo2, c.hi2)
		}
		res[lead+i] = s
	}
	return res
}

// Windows enumerates the same candidate list as Candidates, in the same
// order, without copying rows: each winner is kept as its pair of windows
// over the sorted pool positions that were available. The search counts
// and bound-checks most candidates and assigns few, so it reads this form
// and materializes a clustering only when it assigns one.
//
// One allocation holds the windows and, when some pool row is in use, a
// snapshot of the available positions they span; with no pool row in use
// the windows index the enumerator's own immutable order. The value is
// private to its caller and safe to read from any goroutine.
func (e *Enumerator) Windows(ctx context.Context, used *rowset.Set) Windows {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	w := Windows{e: e, lead: e.lead()}
	avail, picked := e.pick(ctx, used, sc)
	if !picked || len(sc.kept) == 0 {
		return w
	}
	lo, hi := len(avail), 0
	for _, c := range sc.kept {
		lo, hi = min(lo, c.lo1), max(hi, c.hi1)
		if c.hi2 > 0 {
			lo, hi = min(lo, c.lo2), max(hi, c.hi2)
		}
	}
	n := 0
	if len(avail) < len(e.order) {
		n = hi - lo // scratch positions: snapshot the span the winners use
	}
	buf := make([]int32, n+winStride*len(sc.kept))
	w.avail, w.win = avail[lo:hi:hi], buf[n:]
	if n > 0 {
		w.avail = buf[:n:n]
		copy(w.avail, avail[lo:hi])
	}
	for i, c := range sc.kept {
		x := w.win[i*winStride : (i+1)*winStride]
		x[0], x[1], x[4] = int32(c.lo1-lo), int32(c.hi1-lo), sc.uniformMask(c.lo1, c.hi1)
		if c.hi2 > 0 {
			x[2], x[3], x[5] = int32(c.lo2-lo), int32(c.hi2-lo), sc.uniformMask(c.lo2, c.hi2)
		}
	}
	return w
}

// uniformMask returns, as a bit set, the QI attributes among the first 32
// on which window [lo, hi) of the last pick is uniform.
func (sc *scratch) uniformMask(lo, hi int) int32 {
	var mask uint32
	for ai, col := range sc.chg[:min(len(sc.chg), 32)] {
		if col[hi-1] == col[lo] {
			mask |= 1 << ai
		}
	}
	return int32(mask)
}

// winStride is the number of words one winner takes in Windows.win.
const winStride = 6

// Windows is one enumeration's candidate list before materialization (see
// Enumerator.Windows). Candidate i is the empty clustering when i < lead,
// else the winner whose words start at win[(i−lead)·winStride].
type Windows struct {
	e *Enumerator
	// lead is 1 when the empty clustering leads the list, else 0.
	lead int
	// avail is the sorted pool positions the windows index.
	avail []int32
	// win holds winStride words per winner: lo1, hi1, lo2, hi2 — its
	// windows over avail, hi2 == 0 for a single cluster — and the two
	// windows' uniform-attribute masks (see uniformMask).
	win []int32
}

// Len returns the number of candidate clusterings, the empty one included.
func (w Windows) Len() int { return w.lead + len(w.win)/winStride }

// words returns candidate i's words; i must be at least lead.
func (w Windows) words(i int) []int32 {
	j := (i - w.lead) * winStride
	return w.win[j : j+winStride]
}

// Clustering materializes candidate i: the clustering Candidates returns at
// position i, with its rows in a fresh allocation owned by the caller.
func (w Windows) Clustering(i int) Clustering {
	if i < w.lead {
		return Clustering{}
	}
	x := w.words(i)
	c := scored{lo1: int(x[0]), hi1: int(x[1]), lo2: int(x[2]), hi2: int(x[3])}
	rows, s := make([]int, c.size()), make(Clustering, c.clusters())
	s[0], rows = w.e.take(rows, w.avail, c.lo1, c.hi1)
	if c.hi2 > 0 {
		s[1], _ = w.e.take(rows, w.avail, c.lo2, c.hi2)
	}
	return s
}

// Preserved returns the occurrences of b's target that candidate i keeps
// through suppression: a cluster contributes only if it is uniform on b's
// QI components and holds b's values there, and then one occurrence per
// row holding b's complete target. b must be bound to the enumerator's
// relation. It reads the key table, not the relation: a target with only
// QI components costs O(|b|) per cluster, and only a target with other
// components scans the cluster's rows.
func (w Windows) Preserved(i int, b *constraint.Bound) int {
	if i < w.lead {
		return 0
	}
	x := w.words(i)
	n := w.preserved(b, int(x[0]), int(x[1]), uint32(x[4]))
	if x[3] > 0 {
		n += w.preserved(b, int(x[2]), int(x[3]), uint32(x[5]))
	}
	return n
}

// preserved is Preserved for the window [lo, hi) with uniform mask mask.
func (w Windows) preserved(b *constraint.Bound, lo, hi int, mask uint32) int {
	e, width := w.e, w.e.q+1
	first := e.keys[int(w.avail[lo])*width:]
	partial := false
	for k, a := range b.Attrs {
		ai := e.col[a]
		if ai < 0 {
			partial = true
			continue
		}
		if first[ai] != b.Codes[k] || !w.uniform(lo, hi, mask, ai) {
			return 0
		}
	}
	if !partial {
		return hi - lo
	}
	n := 0
	for _, p := range w.avail[lo:hi] {
		if b.Matches(e.rel.Row(e.pool[p])) {
			n++
		}
	}
	return n
}

// uniform reports whether window [lo, hi) is uniform on QI attribute ai:
// from the mask for the first 32 attributes, by a scan of the key column
// beyond them.
func (w Windows) uniform(lo, hi int, mask uint32, ai int) bool {
	if ai < 32 {
		return mask>>ai&1 != 0
	}
	e, width := w.e, w.e.q+1
	code := e.keys[int(w.avail[lo])*width+ai]
	for _, p := range w.avail[lo+1 : hi] {
		if e.keys[int(p)*width+ai] != code {
			return false
		}
	}
	return true
}

// holds reports whether every cluster of c satisfies the criterion, copying
// its rows into the scratch row buffer to check them.
func (e *Enumerator) holds(sc *scratch, avail []int32, c scored) bool {
	if cap(sc.rows) < c.size() {
		sc.rows = make([]int, c.size())
	}
	first, rest := e.take(sc.rows[:c.size()], avail, c.lo1, c.hi1)
	second, _ := e.take(rest, avail, c.lo2, c.hi2)
	crit := e.opts.Criterion
	return crit.Holds(e.rel, first) && (c.hi2 == 0 || crit.Holds(e.rel, second))
}

// baseWindows gathers the cheapest windows of exactly size K for pairwise
// composition, in the scratch's reusable buffer.
func (e *Enumerator) baseWindows(sc *scratch, m int, cost func(lo, hi int) int) []scoredWindow {
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
	ws := sc.base[:0]
	for lo := 0; lo+k <= m; lo += stride {
		ws = append(ws, scoredWindow{lo1: lo, hi1: lo + k, cost: cost(lo, lo+k)})
	}
	sc.base = ws
	slices.SortFunc(ws, func(x, y scoredWindow) int {
		if c := cmp.Compare(x.cost, y.cost); c != 0 {
			return c
		}
		return cmp.Compare(x.lo1, y.lo1)
	})
	if len(ws) > budget {
		ws = ws[:budget]
	}
	return ws
}

// take writes the rows of the window avail[lo:hi] of pool positions to the
// front of buf, in enumeration order (see Candidates), and returns them
// capped at their length, with the rest of buf.
func (e *Enumerator) take(buf []int, avail []int32, lo, hi int) (c, rest []int) {
	n := hi - lo
	c = buf[:n:n]
	for i, p := range avail[lo:hi] {
		c[i] = e.pool[p]
	}
	return c, buf[n:]
}

// windowSizes picks the cluster sizes to explore, in dst's storage: all
// sizes from min to max if few, otherwise dense near the minimum (minimal
// clusterings first) plus a spread up to the maximum.
func windowSizes(dst []int, minSize, maxSize, budget int) []int {
	sizes := dst[:0]
	if maxSize-minSize+1 <= budget {
		for s := minSize; s <= maxSize; s++ {
			sizes = append(sizes, s)
		}
		return sizes
	}
	dense := budget / 2
	for s := minSize; s < minSize+dense; s++ {
		sizes = append(sizes, s)
	}
	rest := budget - dense
	span := maxSize - (minSize + dense)
	for i := 1; i <= rest; i++ {
		sizes = append(sizes, minSize+dense+span*i/rest)
	}
	return sizes
}

// Candidates enumerates candidates for b over rel with all target rows
// available. It is shorthand for
// NewEnumerator(rel, b, opts).Candidates(nil, nil).
func Candidates(rel *relation.Relation, b *constraint.Bound, opts Options) []Clustering {
	return NewEnumerator(rel, b, opts).Candidates(nil, nil)
}
