package constraint

import (
	"sync"

	"diva/internal/par"
	"diva/internal/relation"
)

// Pools returns every bound's TargetQIRows over rel, from one indexed pass
// over rel's rows instead of one scan per bound. pools[i] is bounds[i]'s
// pool in row order, nil when it is empty. The pass collects the rows in
// recycled chunks, and the pools are then copied into one backing array of
// exactly their total size; bounds repeating one single-attribute target
// share one pool. The pass splits into contiguous row ranges on up to
// parallelism workers (par.Workers: 0 means GOMAXPROCS, 1 runs it on the
// caller), and each range's rows are copied after the rows of the ranges
// before it, so the pools are the same at every setting.
func Pools(rel *relation.Relation, bounds []*Bound, parallelism int) [][]int {
	schema := rel.Schema()
	targets := make([]target, len(bounds))
	for i, b := range bounds {
		targets[i] = b.qiTarget(schema)
	}
	x := newTargetIndex(targets)
	n, head := x.scan(rel, parallelism, true)
	total := 0
	for i, t := range targets {
		switch {
		case t.everyRow():
			n[i] = rel.Len()
		case x.filler(i) != i:
			continue
		}
		total += n[i]
	}
	flat := make([]int, total)
	pools := make([][]int, len(targets))
	for i, t := range targets {
		if n[i] == 0 || x.filler(i) != i {
			continue
		}
		pools[i], flat = flat[:n[i]:n[i]], flat[n[i]:]
		if t.everyRow() {
			for r := range pools[i] {
				pools[i][r] = r
			}
			continue
		}
		dst := pools[i]
		for p := &head; p != nil; p = p.next {
			dst = dst[p.drain(i, dst):]
		}
	}
	for i := range pools {
		pools[i] = pools[x.filler(i)]
	}
	return pools
}

// chunkRows is the number of rows one scratch chunk of a Pools pass holds.
const chunkRows = 1024

// chunkPool recycles the scratch chunks across Pools calls.
var chunkPool = sync.Pool{New: func() any { return new([chunkRows]int) }}

// pass is what one worker's scan of a row range gathers. A collecting pass
// keeps each target's matching rows, in row order, in chunks from
// chunkPool: it gathers pools of sizes it learns only at its end, without a
// counting pass first or a growing slice per target.
type pass struct {
	// n[t] counts target t's matching rows in the range; a counting pass
	// tallies the single-attribute targets in hist instead.
	n []int
	// hist holds a counting pass's key-table histograms: slot c of table
	// k is hist[keys[k].hist+c].
	hist []int
	// full[t] is a collecting pass's filled chunks of target t, last[t]
	// the one being filled.
	full [][]*[chunkRows]int
	last []*[chunkRows]int
	// next is the pass over the following row range of a split scan, nil
	// after the last.
	next *pass
}

// newPass returns an empty pass over x's targets, collecting or counting.
func (x *targetIndex) newPass(collect bool) pass {
	p := pass{n: make([]int, len(x.targets))}
	if collect {
		p.full = make([][]*[chunkRows]int, len(x.targets))
		p.last = make([]*[chunkRows]int, len(x.targets))
	} else {
		p.hist = make([]int, x.hists)
	}
	return p
}

// add stores row as target t's m-th match.
func (p *pass) add(t int32, m, row int) {
	k := m % chunkRows
	if k == 0 {
		if p.last[t] != nil {
			p.full[t] = append(p.full[t], p.last[t])
		}
		p.last[t] = chunkPool.Get().(*[chunkRows]int)
	}
	p.last[t][k] = row
}

// drain copies target t's rows into dst, recycles their chunks and returns
// the number of rows copied.
func (p *pass) drain(t int, dst []int) int {
	m := p.n[t]
	if m == 0 {
		return 0
	}
	for _, c := range p.full[t] {
		dst = dst[copy(dst, c[:]):]
		chunkPool.Put(c)
	}
	copy(dst, p.last[t][:m-len(p.full[t])*chunkRows])
	chunkPool.Put(p.last[t])
	return m
}

// Counts returns every bound's CountIn over rel, from one indexed pass over
// rel's rows instead of one scan per bound. The pass splits as Pools's
// does, and the ranges' tallies are summed.
func Counts(rel *relation.Relation, bounds []*Bound, parallelism int) []int {
	targets := make([]target, len(bounds))
	for i, b := range bounds {
		targets[i] = target{attrs: b.Attrs, codes: b.Codes}
	}
	x := newTargetIndex(targets)
	n, _ := x.scan(rel, parallelism, false)
	return n
}

// target is the condition one bound contributes to a Σ-wide pass: a row
// matches when it holds codes on attrs. No attributes match every row; an
// impossibleCode (a value the relation never held) matches none.
type target struct {
	attrs []int
	codes []uint32
}

func (t target) everyRow() bool { return len(t.attrs) == 0 }

func (t target) never() bool {
	for _, c := range t.codes {
		if c == impossibleCode {
			return true
		}
	}
	return false
}

// qiTarget is the condition TargetQIRows matches: the QI components of the
// target. A target without sensitive components is its own QI part.
func (b *Bound) qiTarget(schema *relation.Schema) target {
	qi := 0
	for _, a := range b.Attrs {
		if schema.Attr(a).Role == relation.QI {
			qi++
		}
	}
	if qi == len(b.Attrs) {
		return target{attrs: b.Attrs, codes: b.Codes}
	}
	t := target{attrs: make([]int, 0, qi), codes: make([]uint32, 0, qi)}
	for i, a := range b.Attrs {
		if schema.Attr(a).Role == relation.QI {
			t.attrs = append(t.attrs, a)
			t.codes = append(t.codes, b.Codes[i])
		}
	}
	return t
}

// targetIndex buckets targets by the code of their first attribute, so a
// row is checked in full only against the targets whose first component it
// already holds. Targets matching every row or none are not indexed.
type targetIndex struct {
	targets []target
	keys    []keyTable
	// hists is the total size of the key tables' histograms, which a
	// counting pass holds in one array.
	hists int
	// key[i] is the position in keys of target i's table, -1 when target i
	// is not indexed.
	key []int32
	// next[i] is the next multi-attribute target after i keyed on the same
	// (attribute, code), or -1.
	next []int32
}

// keyTable indexes the targets whose first attribute is attr. A
// single-attribute target matches exactly the rows a counting pass tallies
// in the table's histogram at its code, so counting needs no per-target
// branch; only multi-attribute targets are checked in full per row.
type keyTable struct {
	attr int
	// last is one past the largest keyed code; every code from last up
	// falls into slot last, which no target is keyed on.
	last int
	// hist is the offset of the table's histogram in a counting pass's
	// hist: slot hist+c counts the rows holding code c (slot hist+last:
	// any code ≥ last).
	hist int
	// simple[c] is the first single-attribute target keyed on code c, or
	// -1; a collecting pass gathers code c's rows for it.
	simple []int32
	// multi[c] is the first multi-attribute target keyed on code c, or -1,
	// and next links the others in ascending order; multi is nil when the
	// table holds none.
	multi []int32
}

// newTargetIndex builds the index in a fixed number of allocations, however
// many key tables it holds: the tables' int32 columns share one array with
// key and next.
func newTargetIndex(targets []target) targetIndex {
	// One table per distinct first attribute, spanning its keyed codes.
	key := make([]int, len(targets))
	tables := 0
	for i, t := range targets {
		key[i] = -1
		if t.everyRow() || t.never() {
			continue
		}
		key[i] = tables
		for j := range i {
			if key[j] >= 0 && targets[j].attrs[0] == t.attrs[0] {
				key[i] = key[j]
				break
			}
		}
		if key[i] == tables {
			tables++
		}
	}
	x := targetIndex{targets: targets, keys: make([]keyTable, tables)}
	multi := make([]bool, tables)
	for i, t := range targets {
		if k := key[i]; k >= 0 {
			x.keys[k].attr = t.attrs[0]
			x.keys[k].last = max(x.keys[k].last, int(t.codes[0])+1)
			multi[k] = multi[k] || len(t.attrs) > 1
		}
	}
	cols := 2 * len(targets)
	for k, kt := range x.keys {
		x.keys[k].hist = x.hists
		x.hists += kt.last + 1
		cols += kt.last + 1
		if multi[k] {
			cols += kt.last + 1
		}
	}
	col := make([]int32, cols)
	for i := range col {
		col[i] = -1
	}
	carve := func(n int) []int32 {
		s := col[:n:n]
		col = col[n:]
		return s
	}
	x.key, x.next = carve(len(targets)), carve(len(targets))
	for k := range x.keys {
		kt := &x.keys[k]
		kt.simple = carve(kt.last + 1)
		if multi[k] {
			kt.multi = carve(kt.last + 1)
		}
	}
	// Linking the targets in reverse leaves simple[c] at the first
	// single-attribute target and multi[c] at the head of an ascending list.
	for i := len(targets) - 1; i >= 0; i-- {
		if key[i] < 0 {
			continue
		}
		x.key[i] = int32(key[i])
		kt, c := &x.keys[key[i]], targets[i].codes[0]
		if len(targets[i].attrs) > 1 {
			x.next[i], kt.multi[c] = kt.multi[c], int32(i)
		} else {
			kt.simple[c] = int32(i)
		}
	}
	return x
}

// filler returns the target whose rows a collecting pass gathers for target
// i: the first of the single-attribute targets equal to it, else i itself.
func (x *targetIndex) filler(i int) int {
	t := x.targets[i]
	if k := x.key[i]; k >= 0 && len(t.attrs) == 1 {
		return int(x.keys[k].simple[t.codes[0]])
	}
	return i
}

// scan visits every row of rel once and returns each target's number of
// matching rows, zero for the targets not indexed, and the pass holding
// what it gathered. A counting pass tallies the single-attribute targets
// in the key tables' histograms, so an index counts once; a collecting pass
// also gathers each indexed target's matching rows, under filler(t), in
// row order. Above 2·par.Grain rows the scan splits into contiguous row
// ranges on up to parallelism workers: the returned pass covers the first
// range and links the others in range order through next, and the counts
// are summed over them.
func (x *targetIndex) scan(rel *relation.Relation, parallelism int, collect bool) (n []int, head pass) {
	rows := rel.Len()
	if len(x.keys) == 0 {
		return make([]int, len(x.targets)), pass{}
	}
	if w := par.Workers(parallelism, rows); w > 1 {
		// The workers read a copy of the index, so the caller's index
		// stays on its stack.
		ps, ix := make([]pass, w), *x
		par.Do(w, func(i int) {
			ps[i] = ix.newPass(collect)
			ix.scanRange(rel, i*rows/w, (i+1)*rows/w, &ps[i])
		})
		for i := 1; i < w; i++ {
			ps[i-1].next = &ps[i]
		}
		head = ps[0]
	} else {
		head = x.newPass(collect)
		x.scanRange(rel, 0, rows, &head)
	}
	n = head.n
	if collect {
		if head.next != nil {
			n = make([]int, len(x.targets))
			for p := &head; p != nil; p = p.next {
				for t, m := range p.n {
					n[t] += m
				}
			}
		}
		return n, head
	}
	for p := head.next; p != nil; p = p.next {
		for t, m := range p.n {
			n[t] += m
		}
		for c, m := range p.hist {
			head.hist[c] += m
		}
	}
	for i, t := range x.targets {
		if k := x.key[i]; k >= 0 && len(t.attrs) == 1 {
			n[i] = head.hist[x.keys[k].hist+int(t.codes[0])]
		}
	}
	return n, head
}

// scanRange is scan over the rows [lo, hi), into p.
func (x *targetIndex) scanRange(rel *relation.Relation, lo, hi int, p *pass) {
	n, hist := p.n, p.hist
	for i := lo; i < hi; i++ {
		row := rel.Row(i)
		for k := range x.keys {
			kt := &x.keys[k]
			c := min(int(row[kt.attr]), kt.last)
			if hist != nil {
				hist[kt.hist+c]++
			} else if t := kt.simple[c]; t >= 0 {
				p.add(t, n[t], i)
				n[t]++
			}
			if kt.multi == nil {
				continue
			}
		multi:
			for id := kt.multi[c]; id >= 0; id = x.next[id] {
				t := &x.targets[id]
				for j := 1; j < len(t.attrs); j++ {
					if row[t.attrs[j]] != t.codes[j] {
						continue multi
					}
				}
				if hist == nil {
					p.add(id, n[id], i)
				}
				n[id]++
			}
		}
	}
}
