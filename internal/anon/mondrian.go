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
// The recursion is embarrassingly parallel: the two halves of a cut share no
// state, so they are partitioned by independent worker goroutines when
// Parallelism permits. The output is deterministic regardless of scheduling —
// each split concatenates its left half's clusters before its right half's,
// so the cluster order is the sequential depth-first order.
type Mondrian struct {
	// Criterion, when non-nil, is an additional privacy requirement: a cut
	// is allowable only when both halves satisfy it (this supports
	// non-monotone criteria such as t-closeness, checked per partition).
	// The whole input must satisfy the criterion or partitioning fails.
	Criterion privacy.Criterion
	// Parallelism bounds the worker goroutines partitioning independent
	// halves concurrently (par.Procs): 0 means GOMAXPROCS, 1 forces
	// sequential execution, and values above GOMAXPROCS are clamped to it.
	// The output is byte-identical at every setting.
	Parallelism int
	// Tracer, when non-nil, receives one trace.KindSplit event per cut made
	// (Label = cut attribute, N = partition size, Depth = recursion depth,
	// Elapsed = time spent finding the cut and deriving the two halves'
	// histograms) and one per leaf emitted
	// (Label = ""). Events are serialized internally, so any Tracer works.
	Tracer trace.Tracer
}

// spawnGrain is the minimum partition size worth handing to a worker
// goroutine; smaller partitions recurse inline to keep scheduling overhead
// below the cost of the work itself.
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
	// dirty). A nil idle channel (Parallelism 1, or too few rows for a
	// spawnGrain half) never admits a spawn, which reduces split to plain
	// sequential recursion.
	if workers > 1 && len(rows) > spawnGrain {
		r.idle = make(chan *mondrianScratch, workers-1)
		for i := 0; i < workers-1; i++ {
			r.idle <- nil
		}
	}
	if err := r.split(s, 0, len(rows), 0); err != nil {
		return nil, err
	}
	return r.clusters(), nil
}

// mondrianRun is the state of one Partition call.
//
// The recursion works on input positions — indexes into rows — whose QI
// codes sit in one compact row-major table, so a node reads len(qi) packed
// codes per row instead of chasing each relation row.
//
// Positions live in a ping-pong buffer pair: the node covering [lo, hi) at
// depth d holds its positions in bufs[d%2][lo:hi] and sorts them into
// bufs[1-d%2][lo:hi], where its children find them with the roles swapped.
// Sibling subtrees own disjoint ranges, so workers never share an index,
// and a cut allocates nothing. A leaf marks its start in leafStart and ends
// up in bufs[0], so the clusters are consecutive runs of bufs[0] in
// depth-first order.
type mondrianRun struct {
	ctx       context.Context
	crit      privacy.Criterion
	rel       *relation.Relation
	rows      []int
	k         int
	qi        []int
	attrs     []mondrianAttr // parallel to qi
	codes     []uint32       // codes[p*len(qi)+ai]: QI attribute ai of rows[p]
	bufs      [2][]int
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
// histograms: they are counted while the code table is filled. Above
// 2·par.Grain rows the fill splits into position ranges on up to
// parallelism workers; each counts into histograms of its own, merged into
// the root's in range order, so every distinct list keeps the order in
// which its codes first appear, as one worker's fill leaves it.
func newMondrianRun(ctx context.Context, crit privacy.Criterion, rel *relation.Relation, rows []int, k, parallelism int) (*mondrianRun, *mondrianScratch) {
	schema := rel.Schema()
	r := &mondrianRun{ctx: ctx, crit: crit, rel: rel, rows: rows, k: k, qi: schema.QIIndexes()}
	r.attrs = make([]mondrianAttr, len(r.qi))
	for i, a := range r.qi {
		at := &r.attrs[i]
		at.codes = rel.Dict(a).Len()
		at.cardm1 = float64(max(rel.Dict(a).Cardinality()-1, 1))
	}
	n := len(rows)
	r.codes = make([]uint32, n*len(r.qi))
	bufs := make([]int, 2*n)
	r.bufs = [2][]int{bufs[:n:n], bufs[n:]}
	root := r.newScratch()
	if w := par.Workers(parallelism, n); w > 1 {
		hs := make([]histSet, w)
		par.Do(w, func(i int) {
			h := &root.sets[0]
			if i > 0 {
				hs[i] = r.newHistSet()
				h = &hs[i]
			}
			r.fill(h, i*n/w, (i+1)*n/w)
		})
		for _, h := range hs[1:] {
			for ai, d := range h.distinct {
				for _, c := range d {
					root.sets[0].add(ai, c, h.hist[ai][c])
				}
			}
		}
	} else {
		r.fill(&root.sets[0], 0, n)
	}
	for i, a := range r.qi {
		if schema.Attr(a).Kind == relation.Numeric {
			r.attrs[i].rankValues(rel, a, root.sets[0].distinct[i])
		}
	}
	r.leafStart = make([]bool, n)
	return r, root
}

// fill copies the QI codes of the rows at positions [lo, hi) into the
// code table and counts them into h.
func (r *mondrianRun) fill(h *histSet, lo, hi int) {
	q := len(r.qi)
	for p := lo; p < hi; p++ {
		codes := r.rel.Row(r.rows[p])
		for ai, a := range r.qi {
			c := codes[a]
			r.codes[p*q+ai] = c
			h.add(ai, c, 1)
		}
		r.bufs[0][p] = p
	}
}

// rankValues builds the rank table of numeric attribute a and its value
// range over the codes present in the input. It also parses the attribute's
// whole dictionary into the relation's numeric cache before any worker reads
// it. The attribute stays categorical (rank nil) when the input holds no
// positive value range.
func (at *mondrianAttr) rankValues(rel *relation.Relation, a int, present []uint32) {
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
		return
	}
	at.rank, at.rankVal, at.inRange, at.span = rank, rankVal, inRange, rankVal[hi]-rankVal[lo]
}

// mondrianScratch is one worker goroutine's working memory, allocated once
// per worker.
//
// Histograms are derived, not recounted: a node's histograms sit in
// sets[0]; after its cut the smaller half is counted into sets[1] and the
// larger half's histograms are the node's minus the smaller's, computed in
// place over the node's distinct lists. A half below 2k rows is a leaf and
// keeps none. While the left subtree runs, the right half's histograms wait
// on the pending stack in sparse form. Pending halves cover disjoint row
// ranges, so the stack never holds more than |rows|·|QI| entries, and the
// two dense sets are all the per-domain memory a worker needs at any depth.
// Between nodes both sets are zero and the pending stack is empty.
type mondrianScratch struct {
	sets    [2]histSet
	pending []codeCount // sparse histograms of right halves, a stack
	lens    []int       // per pushed half and QI attribute: its entries in pending
	off     []int       // counting-sort bucket cursors, by rank or code
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
	s := &mondrianScratch{order: make([]attrWidth, len(r.attrs))}
	// A node holds at most min(codes, rows) distinct codes of an attribute,
	// so capped subslices of one block never reallocate.
	total, most, distinct := 0, 0, 0
	for _, at := range r.attrs {
		total += at.codes
		most = max(most, at.codes)
		distinct += min(at.codes, len(r.rows))
	}
	hist, ds := make([]int32, 2*total), make([]uint32, 2*distinct)
	for i := range s.sets {
		h := &s.sets[i]
		h.hist, h.distinct = make([][]int32, len(r.attrs)), make([][]uint32, len(r.attrs))
		for ai, at := range r.attrs {
			h.hist[ai], hist = hist[:at.codes:at.codes], hist[at.codes:]
			d := min(at.codes, len(r.rows))
			h.distinct[ai], ds = ds[:0:d], ds[d:]
		}
	}
	s.off = make([]int, most)
	return s
}

// newHistSet returns an empty histogram set with storage of its own.
func (r *mondrianRun) newHistSet() histSet {
	h := histSet{hist: make([][]int32, len(r.attrs)), distinct: make([][]uint32, len(r.attrs))}
	for ai, at := range r.attrs {
		h.hist[ai] = make([]int32, at.codes)
		h.distinct[ai] = make([]uint32, 0, min(at.codes, len(r.rows)))
	}
	return h
}

// add counts n more rows holding code c of attribute ai.
func (h *histSet) add(ai int, c uint32, n int32) {
	if h.hist[ai][c] == 0 {
		h.distinct[ai] = append(h.distinct[ai], c)
	}
	h.hist[ai][c] += n
}

// count fills the histograms of the rows at positions part in one
// row-major pass.
func (h *histSet) count(r *mondrianRun, part []int) {
	q := len(r.qi)
	for _, p := range part {
		for ai, c := range r.codes[p*q : p*q+q] {
			h.add(ai, c, 1)
		}
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

// halves turns the histograms of a node just cut at position cut of dst
// into its halves': the left half's in sets[0], the right half's in
// sets[1], each empty when that half is below 2k rows. Only the smaller
// half's rows are read.
func (s *mondrianScratch) halves(r *mondrianRun, dst []int, cut int) {
	left, right := dst[:cut], dst[cut:]
	if len(left) < 2*r.k && len(right) < 2*r.k {
		s.sets[0].reset()
		return
	}
	small := left
	if len(right) < len(left) {
		small = right
	}
	s.sets[1].count(r, small)
	s.sets[0].subtract(&s.sets[1])
	if len(small) < 2*r.k {
		s.sets[1].reset()
	}
	if len(small) == len(left) {
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

// split partitions the node covering positions [lo, hi) at the given depth.
// A node of at least 2k rows finds its histograms in s.sets[0] and returns
// with both sets zero; a smaller node is a leaf and reads neither. When the
// idle channel has a spare worker and the left half is large enough to
// amortize a goroutine, the left half is partitioned concurrently with the
// right, by a worker that takes over the left half's histograms.
func (r *mondrianRun) split(s *mondrianScratch, lo, hi, depth int) error {
	if err := ctxErr(r.ctx); err != nil {
		return err
	}
	src, dst := r.bufs[depth%2][lo:hi], r.bufs[1-depth%2][lo:hi]
	if len(src) >= 2*r.k {
		start := time.Now()
		cut, ai := r.findCut(s, src, dst)
		if cut == 0 {
			s.sets[0].reset()
		} else {
			s.halves(r, dst, cut)
			if r.tr != nil {
				r.tr.Trace(trace.Event{Kind: trace.KindSplit, Label: r.rel.Schema().Attr(r.qi[ai]).Name, N: len(src), Depth: depth, Elapsed: time.Since(start)})
			}
			mid := lo + cut
			if r.idle != nil && cut >= spawnGrain {
				select {
				case ws := <-r.idle:
					if ws == nil {
						ws = r.newScratch()
					}
					// The worker takes the left half's histogram set and
					// leaves its own zero set in exchange.
					ws.sets[0], s.sets[0], s.sets[1] = s.sets[0], s.sets[1], ws.sets[0]
					var (
						lErr error
						done = make(chan struct{})
					)
					go func() {
						defer close(done)
						if lErr = r.split(ws, lo, mid, depth+1); lErr != nil {
							ws = nil
						}
						r.idle <- ws
					}()
					rErr := r.split(s, mid, hi, depth+1)
					<-done
					if lErr != nil {
						return lErr
					}
					return rErr
				default:
				}
			}
			s.push()
			if err := r.split(s, lo, mid, depth+1); err != nil {
				return err
			}
			s.pop()
			return r.split(s, mid, hi, depth+1)
		}
	}
	if depth%2 == 1 {
		copy(dst, src)
	}
	r.leafStart[lo] = true
	if r.tr != nil {
		r.tr.Trace(trace.Event{Kind: trace.KindSplit, N: len(src), Depth: depth})
	}
	return nil
}

// findCut tries the QI attributes in descending width order until one
// admits an allowable cut. It returns the cut position within the node,
// with dst holding the node's positions ordered on attribute qi[ai], or cut 0
// when no attribute admits one.
func (r *mondrianRun) findCut(s *mondrianScratch, src, dst []int) (cut, ai int) {
	for _, w := range s.byWidth(r) {
		c := s.cut(r, src, dst, w.ai)
		if c < r.k || len(dst)-c < r.k {
			continue
		}
		if r.crit != nil && (!r.holds(s, dst[:c]) || !r.holds(s, dst[c:])) {
			continue
		}
		return c, w.ai
	}
	return 0, -1
}

// holds reports whether the rows at the given positions satisfy the
// criterion.
func (r *mondrianRun) holds(s *mondrianScratch, part []int) bool {
	s.group = s.group[:0]
	for _, p := range part {
		s.group = append(s.group, r.rows[p])
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

// cut stably counting-sorts src into dst on attribute qi[ai] — numeric
// attributes by value rank, categorical ones by descending frequency in the
// node, then code — and returns the median cut that keeps equal codes on one
// side, or 0 when the node holds a single code. Bucket starts come from the
// node's d distinct codes sorted by key, so a cut costs O(n + d log d)
// whatever the domain size.
func (s *mondrianScratch) cut(r *mondrianRun, src, dst []int, ai int) int {
	h, ds := s.sets[0].hist[ai], s.sets[0].distinct[ai]
	if len(ds) < 2 {
		return 0
	}
	q, pos := len(r.qi), 0
	if rank := r.attrs[ai].rank; rank != nil {
		slices.SortFunc(ds, func(x, y uint32) int { return cmp.Compare(rank[x], rank[y]) })
		for i, c := range ds {
			if i == 0 || rank[c] != rank[ds[i-1]] {
				s.off[rank[c]] = pos
			}
			pos += int(h[c])
		}
		for _, p := range src {
			b := rank[r.codes[p*q+ai]]
			dst[s.off[b]] = p
			s.off[b]++
		}
	} else {
		slices.SortFunc(ds, func(x, y uint32) int {
			if h[x] != h[y] {
				return cmp.Compare(h[y], h[x])
			}
			return cmp.Compare(x, y)
		})
		for _, c := range ds {
			s.off[c] = pos
			pos += int(h[c])
		}
		for _, p := range src {
			c := r.codes[p*q+ai]
			dst[s.off[c]] = p
			s.off[c]++
		}
	}
	// Median cut that respects value boundaries: all records with the same
	// value stay on the same side. Prefer the boundary at or after the
	// median; fall back to the one before it.
	code := func(i int) uint32 { return r.codes[dst[i]*q+ai] }
	mid := len(dst) / 2
	for i := mid; i < len(dst); i++ {
		if code(i) != code(i-1) {
			return i
		}
	}
	for i := mid; i >= 1; i-- {
		if code(i) != code(i-1) {
			return i
		}
	}
	return 0
}

// clusters maps bufs[0] back to row indexes and cuts it at the recorded
// leaf starts.
func (r *mondrianRun) clusters() [][]int {
	rows, n := r.bufs[0], 0
	for i, p := range rows {
		rows[i] = r.rows[p]
		if r.leafStart[i] {
			n++
		}
	}
	out := make([][]int, 0, n)
	lo := 0
	for hi := 1; hi <= len(rows); hi++ {
		if hi == len(rows) || r.leafStart[hi] {
			out = append(out, rows[lo:hi:hi])
			lo = hi
		}
	}
	return out
}
