package anon

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"diva/internal/par"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/trace"
)

// Mondrian implements the strict multidimensional partitioning of LeFevre,
// DeWitt and Ramakrishnan (ICDE 2006): recursively split the partition on
// the attribute with the widest normalized range at the median, as long as
// both halves keep at least k records. Numeric attributes split at the
// value median; categorical attributes split on the frequency-sorted value
// order (the standard adaptation for domains without user-supplied
// hierarchies).
//
// A cut depends only on the multiset of the rows' QI vectors (LeFevre et
// al.'s frequency-set view), so the recursion partitions the distinct QI
// vectors, each weighted by the rows holding it, and places rows only at
// the leaves. The recursion is embarrassingly parallel: the two halves of a
// cut share no state, so they are partitioned by independent worker
// goroutines when Parallelism permits. The output is deterministic regardless of scheduling —
// each split concatenates its left half's clusters before its right half's,
// so the cluster order is the sequential depth-first order.
type Mondrian struct {
	// Criterion, when non-nil, is an additional privacy requirement: a cut
	// is allowable only when both halves satisfy it (this supports
	// non-monotone criteria such as t-closeness, checked per partition).
	// The whole input must satisfy the criterion or partitioning fails.
	Criterion privacy.Criterion
	// Parallelism bounds the worker goroutines grouping the rows into
	// vectors and partitioning independent halves concurrently (par.Procs):
	// 0 means GOMAXPROCS, 1 forces sequential execution, and values above
	// GOMAXPROCS are clamped to it. The output is byte-identical at every
	// setting.
	Parallelism int
	// Tracer, when non-nil, receives one trace.KindSplit event per cut made
	// (Label = cut attribute, N = partition size, Depth = recursion depth,
	// Elapsed = time spent finding the cut and deriving the two halves'
	// histograms) and one per leaf emitted
	// (Label = ""). Events are serialized internally, so any Tracer works.
	Tracer trace.Tracer
}

// spawnGrain is the minimum partition size, in distinct QI vectors, worth
// handing to a worker goroutine: a node's cost is linear in its vectors, so
// smaller partitions recurse inline to keep scheduling overhead below the
// cost of the work itself.
const spawnGrain = 512

// Name returns "Mondrian".
func (m *Mondrian) Name() string { return "Mondrian" }

// SetTracer implements TraceSink.
func (m *Mondrian) SetTracer(tr trace.Tracer) { m.Tracer = tr }

// Partition implements Partitioner. The context is checked before every
// recursive split, so cancellation latency is one median cut even with
// workers fanned out across the tree.
//
// The returned clusters are three-index subslices of one array holding a
// permutation of rows, so appending to a cluster never overwrites another.
func (m *Mondrian) Partition(ctx context.Context, rel *relation.Relation, rows []int, k int) ([][]int, error) {
	if err := checkPartitionable(ctx, rows, k); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if m.Criterion != nil && !m.Criterion.Holds(rel, rows) {
		return nil, fmt.Errorf("anon: the input itself violates %s; no partitioning can satisfy it", m.Criterion.Name())
	}
	var tr trace.Tracer
	if m.Tracer != nil {
		// Workers emit split events concurrently; a caller's tracer is only
		// contractually goroutine-safe for KindProgress.
		tr = trace.Synchronized(m.Tracer)
	}
	if len(rows) < 2*k {
		// No cut can leave k rows on both sides: skip the per-call tables.
		if tr != nil {
			tr.Trace(trace.Event{Kind: trace.KindSplit, N: len(rows)})
		}
		part := make([]int, len(rows))
		copy(part, rows)
		return [][]int{part}, nil
	}
	r, s := newMondrianRun(ctx, m.Criterion, rel, rows, k, m.Parallelism)
	r.tr = tr

	workers := par.Procs(m.Parallelism)
	// The calling goroutine is worker zero; idle holds the extra capacity,
	// one slot per spare worker, each carrying that worker's scratch once it
	// has been allocated (nil before, and after a failed subtree left it
	// dirty). A nil idle channel (Parallelism 1, or too few vectors for a
	// spawnGrain half) never admits a spawn, which reduces split to plain
	// sequential recursion.
	if workers > 1 && r.vecs.Len() > spawnGrain {
		r.idle = make(chan *mondrianScratch, workers-1)
		for i := 0; i < workers-1; i++ {
			r.idle <- nil
		}
	}
	if err := r.split(s, 0, r.vecs.Len(), 0, len(rows), 0); err != nil {
		return nil, err
	}
	return r.clusters(), nil
}

// mondrianRun is the state of one Partition call.
//
// The recursion partitions the distinct QI vectors of the input rows, read
// once from the relation by its group-by kernel (relation.Distinct): each
// vector's codes, its weight and its input positions (indexes into rows).
// A node is a set of vectors and its size is their total weight; a cut
// never separates the rows of one vector, which agree on every attribute.
//
// Vector ids live in a ping-pong buffer pair: the node covering [lo, hi) at
// depth d holds its vectors in bufs[d%2][lo:hi] and sorts them into
// bufs[1-d%2][lo:hi], where its children find them with the roles swapped.
// A node also owns a range of out, its rows' places in the final
// permutation, which a leaf fills and marks in leafStart. Sibling subtrees
// own disjoint ranges of both, so workers never share an index, a cut
// allocates nothing, and the clusters are consecutive runs of out in
// depth-first order.
type mondrianRun struct {
	ctx       context.Context
	crit      privacy.Criterion
	rel       *relation.Relation
	rows      []int
	k         int
	qi        []int
	attrs     []mondrianAttr    // parallel to qi
	vecs      relation.Distinct // the input rows' QI vectors
	bufs      [2][]int
	out       []int
	leafStart []bool
	idle      chan *mondrianScratch
	tr        trace.Tracer
}

// mondrianAttr is what a Partition call precomputes for one QI attribute.
type mondrianAttr struct {
	// codes is the dictionary length; every code in the rows is below it.
	codes int
	// cardm1 is the categorical width denominator, max(cardinality−1, 1).
	cardm1 float64
	// rank is nil for an attribute cut categorically. For a numeric one it
	// maps each code to the rank of its value, equal values sharing a rank
	// and ★ and unparsable codes counting as 0, exactly as the value order
	// NumericValue gives; NaN takes the lowest rank (cmp.Compare order).
	rank []int32
	// rankVal[r] is the value of rank r (either zero for the rank holding
	// both −0 and +0, which gives the same widths).
	rankVal []float64
	// inRange reports, by code, whether the code counts toward a numeric
	// width: parsed, not ★ and not NaN.
	inRange []bool
	// span is the value range over the input rows, the width denominator.
	span float64
}

// newMondrianRun also returns worker zero's scratch, holding the root's
// histograms, counted from the vectors.
//
// Where two codes present in the rows share the rank of a numeric
// attribute (★ or an unparsable value beside a literal 0, "7" beside "07",
// two spellings of NaN), a cut on it orders their rows by position inside
// one rank bucket, interleaving the codes, and may fall between two rows
// of one vector. The run then makes every input position a vector of its
// own, of weight 1, and the same recursion cuts rows.
func newMondrianRun(ctx context.Context, crit privacy.Criterion, rel *relation.Relation, rows []int, k, parallelism int) (*mondrianRun, *mondrianScratch) {
	schema := rel.Schema()
	r := &mondrianRun{ctx: ctx, crit: crit, rel: rel, rows: rows, k: k, qi: schema.QIIndexes()}
	r.attrs = make([]mondrianAttr, len(r.qi))
	for i, a := range r.qi {
		at := &r.attrs[i]
		at.codes = rel.Dict(a).Len()
		at.cardm1 = float64(max(rel.Dict(a).Cardinality()-1, 1))
	}
	r.vecs = rel.Distinct(r.qi, rows, parallelism)
	root := r.newScratch()
	for v := range r.vecs.Len() {
		root.sets[0].addVector(r, v)
	}
	shared := false
	for i, a := range r.qi {
		if schema.Attr(a).Kind == relation.Numeric {
			shared = r.attrs[i].rankValues(rel, a, root.sets[0].distinct[i]) || shared
		}
	}
	if shared {
		r.vecs = eachPosition(rel, r.qi, rows)
	}
	n, g := len(rows), r.vecs.Len()
	blk := make([]int, n+2*g)
	r.out, r.bufs = blk[:n:n], [2][]int{blk[n : n+g : n+g], blk[n+g:]}
	for v := range r.bufs[0] {
		r.bufs[0][v] = v
	}
	r.leafStart = make([]bool, n)
	return r, root
}

// eachPosition returns the vector table in which every input position is a
// vector of its own, holding its row's QI codes.
func eachPosition(rel *relation.Relation, qi, rows []int) relation.Distinct {
	n, q := len(rows), len(qi)
	blk := make([]uint32, n*q+2*n+1)
	d := relation.Distinct{Width: q, Codes: blk[: n*q : n*q], Start: blk[n*q : n*q+n+1 : n*q+n+1], Pos: blk[n*q+n+1:]}
	for p, row := range rows {
		codes := rel.Row(row)
		for ai, a := range qi {
			d.Codes[p*q+ai] = codes[a]
		}
		d.Start[p], d.Pos[p] = uint32(p), uint32(p)
	}
	d.Start[n] = uint32(n)
	return d
}

// rankValues builds the rank table of numeric attribute a and its value
// range over the codes present in the input, and reports whether two of
// those codes share a rank. It also parses the attribute's whole
// dictionary into the relation's numeric cache before any worker reads it.
// The attribute stays categorical (rank nil) when the input holds no
// positive value range.
func (at *mondrianAttr) rankValues(rel *relation.Relation, a int, present []uint32) (shared bool) {
	vals := make([]float64, at.codes)
	inRange := make([]bool, at.codes)
	byVal := make([]uint32, at.codes)
	for c := range byVal {
		v, ok := rel.NumericValue(a, uint32(c))
		vals[c] = v
		inRange[c] = ok && uint32(c) != relation.StarCode && !math.IsNaN(v)
		byVal[c] = uint32(c)
	}
	slices.SortFunc(byVal, func(x, y uint32) int { return cmp.Compare(vals[x], vals[y]) })
	rank, rankVal := make([]int32, at.codes), make([]float64, 0, at.codes)
	for i, c := range byVal {
		if i == 0 || cmp.Compare(vals[byVal[i-1]], vals[c]) != 0 {
			rankVal = append(rankVal, vals[c])
		}
		rank[c] = int32(len(rankVal) - 1)
	}
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, c := range present {
		if inRange[c] {
			lo, hi = min(lo, rank[c]), max(hi, rank[c])
		}
	}
	if hi < 0 || rankVal[hi]-rankVal[lo] <= 0 {
		return false
	}
	at.rank, at.rankVal, at.inRange, at.span = rank, rankVal, inRange, rankVal[hi]-rankVal[lo]
	// A distinct list's order is immaterial (cut sorts it), so sort it to
	// find codes sharing a rank side by side.
	slices.SortFunc(present, func(x, y uint32) int { return cmp.Compare(rank[x], rank[y]) })
	for i := 1; i < len(present); i++ {
		if rank[present[i]] == rank[present[i-1]] {
			return true
		}
	}
	return false
}

// mondrianScratch is one worker goroutine's working memory, allocated once
// per worker.
//
// Histograms count rows (vector weights), and are derived, not recounted:
// a node's histograms sit in sets[0]; after its cut the half with fewer
// vectors is counted into sets[1] and the other half's histograms are the
// node's minus those, computed in place over the node's distinct lists. A
// half below 2k rows is a leaf and keeps none, whichever half it is. While
// the left subtree runs, the right half's histograms wait on the pending
// stack in sparse form. Pending halves hold disjoint vectors, so the stack
// never holds more than |vectors|·|QI| entries, and the two dense sets are
// all the per-domain memory a worker needs at any depth. Between nodes both
// sets are zero and the pending stack is empty.
type mondrianScratch struct {
	sets    [2]histSet
	pending []codeCount // sparse histograms of right halves, a stack
	lens    []int       // per pushed half and QI attribute: its entries in pending
	off     []int       // counting-sort bucket cursors, by rank or code
	onPath  []int       // per QI attribute: the cuts on it above the current node
	order   []attrWidth // QI attributes by descending width
	group   []int       // row indexes of a candidate half, for the criterion
}

// histSet holds one node's histograms.
type histSet struct {
	hist     [][]int32  // per QI attribute: code → rows holding it in the node
	distinct [][]uint32 // per QI attribute: the codes with a non-zero hist entry
}

type codeCount struct {
	code uint32
	n    int32
}

func (r *mondrianRun) newScratch() *mondrianScratch {
	q := len(r.attrs)
	s := &mondrianScratch{order: make([]attrWidth, q)}
	// A node holds at most min(codes, rows) distinct codes of an attribute,
	// so capped subslices of one block never reallocate.
	total, most, distinct := 0, 0, 0
	for _, at := range r.attrs {
		total += at.codes
		most = max(most, at.codes)
		distinct += min(at.codes, len(r.rows))
	}
	hist, ds := make([]int32, 2*total), make([]uint32, 2*distinct)
	hists, dists := make([][]int32, 2*q), make([][]uint32, 2*q)
	for i := range s.sets {
		h := &s.sets[i]
		h.hist, h.distinct = hists[i*q:(i+1)*q:(i+1)*q], dists[i*q:(i+1)*q:(i+1)*q]
		for ai, at := range r.attrs {
			h.hist[ai], hist = hist[:at.codes:at.codes], hist[at.codes:]
			d := min(at.codes, len(r.rows))
			h.distinct[ai], ds = ds[:0:d], ds[d:]
		}
	}
	off := make([]int, most+q)
	s.off, s.onPath = off[:most:most], off[most:]
	return s
}

// add counts n more rows holding code c of attribute ai.
func (h *histSet) add(ai int, c uint32, n int32) {
	if h.hist[ai][c] == 0 {
		h.distinct[ai] = append(h.distinct[ai], c)
	}
	h.hist[ai][c] += n
}

// addVector counts the rows of vector v.
func (h *histSet) addVector(r *mondrianRun, v int) {
	q, n := len(r.qi), int32(r.vecs.Weight(v))
	for ai, c := range r.vecs.Codes[v*q : v*q+q] {
		h.add(ai, c, n)
	}
}

// subtract removes the counts of sub from h, dropping the codes that reach
// zero from h's distinct lists. It costs O(h's distinct codes).
func (h *histSet) subtract(sub *histSet) {
	for ai, ds := range h.distinct {
		hh, sh := h.hist[ai], sub.hist[ai]
		kept := ds[:0]
		for _, c := range ds {
			if hh[c] -= sh[c]; hh[c] != 0 {
				kept = append(kept, c)
			}
		}
		h.distinct[ai] = kept
	}
}

// reset zeroes the histograms through their distinct lists, so it costs
// O(distinct codes), not O(domain).
func (h *histSet) reset() {
	for ai, ds := range h.distinct {
		for _, c := range ds {
			h.hist[ai][c] = 0
		}
		h.distinct[ai] = ds[:0]
	}
}

// halves turns the histograms of a node of n rows, just cut before vector
// vcut of dst and row rcut, into its halves': the left half's in sets[0],
// the right half's in sets[1], each empty when that half is below 2k rows.
// Only the vectors of the half with fewer of them are read.
func (s *mondrianScratch) halves(r *mondrianRun, dst []int, vcut, rcut, n int) {
	left, right := rcut, n-rcut
	if left < 2*r.k && right < 2*r.k {
		s.sets[0].reset()
		return
	}
	countLeft := vcut <= len(dst)-vcut
	counted, derived := dst[vcut:], left
	if countLeft {
		counted, derived = dst[:vcut], right
	}
	for _, v := range counted {
		s.sets[1].addVector(r, v)
	}
	s.sets[0].subtract(&s.sets[1])
	if n-derived < 2*r.k {
		s.sets[1].reset()
	}
	if derived < 2*r.k {
		s.sets[0].reset()
	}
	if countLeft {
		s.sets[0], s.sets[1] = s.sets[1], s.sets[0]
	}
}

// push moves sets[1] onto the pending stack in sparse form.
func (s *mondrianScratch) push() {
	h := &s.sets[1]
	for ai, ds := range h.distinct {
		for _, c := range ds {
			s.pending = append(s.pending, codeCount{code: c, n: h.hist[ai][c]})
			h.hist[ai][c] = 0
		}
		s.lens = append(s.lens, len(ds))
		h.distinct[ai] = ds[:0]
	}
}

// pop moves the most recently pushed histograms into sets[0], which must be
// zero.
func (s *mondrianScratch) pop() {
	lens := s.lens[len(s.lens)-len(s.sets[0].hist):]
	at := len(s.pending)
	for _, n := range lens {
		at -= n
	}
	entries := s.pending[at:]
	for ai, n := range lens {
		for _, e := range entries[:n] {
			s.sets[0].add(ai, e.code, e.n)
		}
		entries = entries[n:]
	}
	s.pending, s.lens = s.pending[:at], s.lens[:len(s.lens)-len(lens)]
}

// split partitions the node of n rows whose vectors cover [lo, hi) at the
// given depth and whose rows go to out[at:at+n]. A node of at least 2k
// rows finds its histograms in s.sets[0] and returns with both sets zero;
// a smaller node is a leaf and reads neither. When the idle channel has a
// spare worker and the left half has enough vectors to amortize a
// goroutine, the left half is partitioned concurrently with the right, by
// a worker that takes over the left half's histograms.
func (r *mondrianRun) split(s *mondrianScratch, lo, hi, at, n, depth int) error {
	if err := ctxErr(r.ctx); err != nil {
		return err
	}
	src, dst := r.bufs[depth%2][lo:hi], r.bufs[1-depth%2][lo:hi]
	if n >= 2*r.k {
		var start time.Time
		if r.tr != nil {
			start = time.Now()
		}
		vcut, rcut, ai := r.findCut(s, src, dst, n)
		if vcut == 0 {
			s.sets[0].reset()
		} else {
			s.halves(r, dst, vcut, rcut, n)
			if r.tr != nil {
				r.tr.Trace(trace.Event{Kind: trace.KindSplit, Label: r.rel.Schema().Attr(r.qi[ai]).Name, N: n, Depth: depth, Elapsed: time.Since(start)})
			}
			mid := lo + vcut
			s.onPath[ai]++
			defer func() { s.onPath[ai]-- }()
			if r.idle != nil && vcut >= spawnGrain {
				select {
				case ws := <-r.idle:
					if ws == nil {
						ws = r.newScratch()
					}
					// The worker takes the left half's histogram set and
					// leaves its own zero set in exchange.
					ws.sets[0], s.sets[0], s.sets[1] = s.sets[0], s.sets[1], ws.sets[0]
					copy(ws.onPath, s.onPath)
					var (
						lErr error
						done = make(chan struct{})
					)
					go func() {
						defer close(done)
						if lErr = r.split(ws, lo, mid, at, rcut, depth+1); lErr != nil {
							ws = nil
						}
						r.idle <- ws
					}()
					rErr := r.split(s, mid, hi, at+rcut, n-rcut, depth+1)
					<-done
					if lErr != nil {
						return lErr
					}
					return rErr
				default:
				}
			}
			s.push()
			if err := r.split(s, lo, mid, at, rcut, depth+1); err != nil {
				return err
			}
			s.pop()
			return r.split(s, mid, hi, at+rcut, n-rcut, depth+1)
		}
	}
	r.leaf(s, src, at)
	if r.tr != nil {
		r.tr.Trace(trace.Event{Kind: trace.KindSplit, N: n, Depth: depth})
	}
	return nil
}

// leaf writes the rows of the leaf whose vectors are src into out from at
// on, in the order a row-level recursion leaves them: by the parent's cut
// key, then each ancestor's up to the root's, then input position. Each
// cut is a stable sort of the node's vectors, which start in
// first-appearance order, so the vectors already sit in that key order.
// Only consecutive vectors agreeing on every attribute cut above the leaf
// tie on every key; each such run's rows are merged by input position.
func (r *mondrianRun) leaf(s *mondrianScratch, src []int, at int) {
	i, q, codes := at, len(r.qi), r.vecs.Codes
	for j := 0; j < len(src); {
		first, v := i, src[j]
		for _, p := range r.vecs.Positions(v) {
			r.out[i] = int(p)
			i++
		}
		merge := false
		for j++; j < len(src) && s.sameCuts(codes[v*q:v*q+q], codes[src[j]*q:src[j]*q+q]); j++ {
			for _, p := range r.vecs.Positions(src[j]) {
				r.out[i] = int(p)
				i++
			}
			merge = true
		}
		if merge {
			slices.Sort(r.out[first:i])
		}
	}
	for x := at; x < i; x++ {
		r.out[x] = r.rows[r.out[x]]
	}
	r.leafStart[at] = true
}

// sameCuts reports whether two vectors' codes agree on every attribute cut
// above the current node.
func (s *mondrianScratch) sameCuts(u, v []uint32) bool {
	for ai, cuts := range s.onPath {
		if cuts > 0 && u[ai] != v[ai] {
			return false
		}
	}
	return true
}

// findCut tries the QI attributes in descending width order until one
// admits an allowable cut. It returns the cut within the node of n rows —
// before vector vcut of dst, which holds the node's vectors ordered on
// attribute qi[ai], and row rcut — or vcut 0 when no attribute admits one.
func (r *mondrianRun) findCut(s *mondrianScratch, src, dst []int, n int) (vcut, rcut, ai int) {
	for _, w := range s.byWidth(r) {
		vc, rc := s.cut(r, src, dst, w.ai, n)
		if rc < r.k || n-rc < r.k {
			continue
		}
		if r.crit != nil && (!r.holds(s, dst[:vc]) || !r.holds(s, dst[vc:])) {
			continue
		}
		return vc, rc, w.ai
	}
	return 0, 0, -1
}

// holds reports whether the rows of the given vectors satisfy the
// criterion.
func (r *mondrianRun) holds(s *mondrianScratch, part []int) bool {
	s.group = s.group[:0]
	for _, v := range part {
		for _, p := range r.vecs.Positions(v) {
			s.group = append(s.group, r.rows[p])
		}
	}
	return r.crit.Holds(r.rel, s.group)
}

type attrWidth struct {
	ai    int
	width float64
}

// byWidth orders the QI attribute positions by normalized width over the
// counted node: numeric width is the value range relative to the input's
// range; categorical width is the number of distinct codes relative to the
// dictionary's.
func (s *mondrianScratch) byWidth(r *mondrianRun) []attrWidth {
	for ai := range r.attrs {
		at, ds := &r.attrs[ai], s.sets[0].distinct[ai]
		var width float64
		if at.rank != nil {
			lo, hi := int32(math.MaxInt32), int32(-1)
			for _, c := range ds {
				if at.inRange[c] {
					lo, hi = min(lo, at.rank[c]), max(hi, at.rank[c])
				}
			}
			if hi >= 0 {
				width = (at.rankVal[hi] - at.rankVal[lo]) / at.span
			}
		} else {
			width = float64(len(ds)-1) / at.cardm1
		}
		s.order[ai] = attrWidth{ai: ai, width: width}
	}
	// The stable sorts in sort and slices share one algorithm and consult
	// only "< 0", so this replays the order of sort.SliceStable with a ">"
	// comparator exactly — ties and the NaN widths of an infinite span
	// included.
	slices.SortStableFunc(s.order, func(x, y attrWidth) int {
		if x.width > y.width {
			return -1
		}
		return 0
	})
	return s.order
}

// cut stably counting-sorts the vectors src into dst on attribute qi[ai] —
// numeric attributes by value rank, categorical ones by descending row
// frequency in the node, then code — and returns the median cut of the
// node's n rows that keeps equal codes on one side: before vector vcut of
// dst and row rcut, the first code boundary whose prefix weight reaches
// n/2, else the last one before it. It returns 0, 0 when the node holds a
// single code. Bucket starts come from the node's d distinct codes sorted
// by key, so a cut costs O(v + d log d) for the node's v vectors, whatever
// the domain size.
func (s *mondrianScratch) cut(r *mondrianRun, src, dst []int, ai, n int) (vcut, rcut int) {
	h, ds := s.sets[0].hist[ai], s.sets[0].distinct[ai]
	if len(ds) < 2 {
		return 0, 0
	}
	q, codes, rank := len(r.qi), r.vecs.Codes, r.attrs[ai].rank
	if rank != nil {
		slices.SortFunc(ds, func(x, y uint32) int { return cmp.Compare(rank[x], rank[y]) })
	} else {
		slices.SortFunc(ds, func(x, y uint32) int {
			if h[x] != h[y] {
				return cmp.Compare(h[y], h[x])
			}
			return cmp.Compare(x, y)
		})
	}
	// A code's bucket is its rank, or the code itself when cut
	// categorically. s.off first counts each bucket's vectors, then holds
	// its cursor, which ends at the bucket's end.
	bucket := func(c uint32) int {
		if rank != nil {
			return int(rank[c])
		}
		return int(c)
	}
	for _, c := range ds {
		s.off[bucket(c)] = 0
	}
	for _, v := range src {
		s.off[bucket(codes[v*q+ai])]++
	}
	pos := 0
	for i, c := range ds {
		if b := bucket(c); i == 0 || b != bucket(ds[i-1]) {
			s.off[b], pos = pos, pos+s.off[b]
		}
	}
	for _, v := range src {
		b := bucket(codes[v*q+ai])
		dst[s.off[b]] = v
		s.off[b]++
	}
	// Median cut that respects value boundaries: all records with the same
	// value stay on the same side. Prefer the first boundary at or after
	// the median row; fall back to the last one before it. Boundaries are
	// the bucket starts and, inside a bucket of several codes (a shared
	// rank, so every vector is one row), every change of code.
	mid, rows, at := n/2, 0, 0 // rows and vectors before bucket ds[i:j]
	for i, j := 0, 0; i < len(ds); i = j {
		b, w := bucket(ds[i]), int32(0)
		for j = i; j < len(ds) && bucket(ds[j]) == b; j++ {
			w += h[ds[j]]
		}
		if i > 0 {
			if rows >= mid {
				return at, rows
			}
			vcut, rcut = at, rows
		}
		if j-i > 1 {
			for x, p := at+1, rows+r.vecs.Weight(dst[at]); x < s.off[b]; x++ {
				if codes[dst[x]*q+ai] != codes[dst[x-1]*q+ai] {
					if p >= mid {
						return x, p
					}
					vcut, rcut = x, p
				}
				p += r.vecs.Weight(dst[x])
			}
		}
		rows, at = rows+int(w), s.off[b]
	}
	return vcut, rcut
}

// clusters cuts out at the recorded leaf starts.
func (r *mondrianRun) clusters() [][]int {
	n := 0
	for _, start := range r.leafStart {
		if start {
			n++
		}
	}
	out, lo := make([][]int, 0, n), 0
	for hi := 1; hi <= len(r.out); hi++ {
		if hi == len(r.out) || r.leafStart[hi] {
			out = append(out, r.out[lo:hi:hi])
			lo = hi
		}
	}
	return out
}
