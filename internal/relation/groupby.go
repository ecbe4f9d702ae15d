package relation

import (
	"math/bits"
	"slices"

	"diva/internal/par"
)

// Distinct is the table the group-by kernel returns: the distinct code
// vectors of some selected rows on some attributes, each once, with its
// weight and its input positions (indexes into the selection).
type Distinct struct {
	// Width is the number of attributes grouped on.
	Width int
	// Codes holds vector g's codes, one per grouping attribute in the order
	// given, at Codes[g*Width : (g+1)*Width]. Vectors are numbered in order
	// of first appearance among the selected rows.
	Codes []uint32
	// Start and Pos list each vector's input positions in CSR layout:
	// vector g's are Pos[Start[g]:Start[g+1]], ascending, so its weight (the
	// rows holding it) is Start[g+1]−Start[g]. Start has Len()+1 entries.
	Start []uint32
	Pos   []uint32
}

// Len returns the number of distinct vectors.
func (d *Distinct) Len() int { return len(d.Start) - 1 }

// Weight returns the number of selected rows holding vector g.
func (d *Distinct) Weight(g int) int { return int(d.Start[g+1] - d.Start[g]) }

// Positions returns vector g's input positions, ascending.
func (d *Distinct) Positions(g int) []uint32 { return d.Pos[d.Start[g]:d.Start[g+1]] }

// firstVectors is the fewest distinct vectors a kernel's first hash table
// and code table hold before they grow; a selection of m rows starts with
// room for m/16 when that is more.
const firstVectors = 1024

// Distinct is the group-by kernel. It groups the given rows (all rows if
// rows is nil) by their codes on attrs in one pass over the rows: each
// row's codes make a key — packed into 64 bits when the dictionaries'
// code widths allow, else hashed — that an open-addressing table maps to a
// vector id, and a row whose vector is new appends it to the code table. A
// second pass over the rows' vector ids places each position in its
// vector's CSR range, so positions come out ascending with no sort.
//
// Above 2·par.Grain rows the pass splits into contiguous position ranges
// on up to parallelism workers (0 means GOMAXPROCS), each hashing its range
// into a table of its own. The tables merge in range order, which numbers
// the vectors in first-appearance order, and each range then places its
// positions after those of the ranges before it. So the table does not
// depend on the worker count.
//
// Selections must have fewer than 2³² rows; code widths are unbounded.
func (r *Relation) Distinct(attrs, rows []int, parallelism int) Distinct {
	m := len(rows)
	if rows == nil {
		m = r.n
	}
	q := len(attrs)
	// One block holds the positions' vector ids, the CSR positions and the
	// first tables, so a small selection allocates it and the keys alone.
	first := min(m, max(firstVectors, m/16))
	slots := slotsFor(first)
	blk := make([]uint32, 2*m+slots+first*q+first+1)
	vid, pos := blk[:m:m], blk[m:2*m:2*m]
	tbl := blk[2*m:]
	t := vecTable{
		q:     q,
		slots: tbl[:slots:slots],
		codes: tbl[slots : slots : slots+first*q],
		count: tbl[slots+first*q : slots+first*q],
		keys:  make([]uint64, 0, first),
		shift: shiftFor(slots),
	}
	// Vectors of at most 64 bits, at bits.Len(dictionary length − 1) a
	// code, are keyed by their packed codes, so equal keys mean equal
	// vectors; wider ones by a hash, and equal keys are checked code by
	// code.
	total := 0
	for j, a := range attrs {
		if j < len(t.width) {
			t.width[j] = uint8(bitsFor(r.dicts[a].Len()))
		}
		total += bitsFor(r.dicts[a].Len())
	}
	t.exact = total <= 64 && q <= len(t.width)
	d := Distinct{Width: q, Pos: pos}
	w := par.Workers(parallelism, m)
	if w == 1 {
		r.hashRange(&t, attrs, rows, 0, m, vid)
		d.Codes, d.Start = t.codes, startOf(t.count)
		// The cursors run one vector ahead of the starts; shift them back.
		place(pos, vid, 0, d.Start)
		copy(d.Start[1:], d.Start)
		d.Start[0] = 0
		return d
	}
	tabs := make([]vecTable, w)
	tabs[0] = t
	for i := 1; i < w; i++ {
		n := (i+1)*m/w - i*m/w
		tabs[i] = t.empty(min(n, max(firstVectors, n/16)))
	}
	par.Do(w, func(i int) {
		r.hashRange(&tabs[i], attrs, rows, i*m/w, (i+1)*m/w, vid)
	})
	// Merge the other ranges' vectors, in range order, into the first
	// range's table, whose ids are already the global ones. Each range's
	// counts then become its cursors: where its next position of each of
	// its vectors goes.
	all, self := &tabs[0], ascending(q)
	cursors, ids := make([][]uint32, w), make([][]uint32, w)
	cursors[0] = append([]uint32(nil), all.count...)
	for i := 1; i < w; i++ {
		tb := &tabs[i]
		cursors[i], ids[i] = tb.count, make([]uint32, len(tb.count))
		for l, n := range tb.count {
			g := all.add(tb.keys[l], tb.codes[l*q:(l+1)*q], self)
			all.count[g] += n
			ids[i][l] = g
		}
	}
	d.Codes, d.Start = all.codes, startOf(all.count)
	next := append([]uint32(nil), d.Start...)
	for i, cur := range cursors {
		for l, n := range cur {
			g := uint32(l)
			if i > 0 {
				g = ids[i][l]
			}
			cur[l] = next[g]
			next[g] += n
		}
	}
	par.Do(w, func(i int) {
		lo := i * m / w
		place(pos, vid[lo:(i+1)*m/w], lo, cursors[i])
	})
	return d
}

// startOf turns per-vector counts into CSR starts in place: one entry more,
// the last the total. It reallocates only when count has no spare
// capacity.
func startOf(count []uint32) []uint32 {
	start := append(count, 0)
	var sum uint32
	for g, n := range start {
		start[g] = sum
		sum += n
	}
	return start
}

// place writes positions lo, lo+1, … of the range whose vector ids are vid
// into pos, each at its vector's cursor, advancing the cursor.
func place(pos, vid []uint32, lo int, cursor []uint32) {
	for i, g := range vid {
		pos[cursor[g]] = uint32(lo + i)
		cursor[g]++
	}
}

// hashRange adds the rows at input positions [lo, hi) to t, counting
// them, and records each position's vector id in vid.
func (r *Relation) hashRange(t *vecTable, attrs, rows []int, lo, hi int, vid []uint32) {
	for p := lo; p < hi; p++ {
		i := p
		if rows != nil {
			i = rows[p]
		}
		row := r.Row(i)
		g := t.add(t.key(row, attrs), row, attrs)
		t.count[g]++
		vid[p] = g
	}
}

// vecTable is one hash table of the kernel: the distinct vectors it has
// seen, in first-appearance order, with their row counts and keys.
type vecTable struct {
	q     int
	codes []uint32 // q codes per vector
	count []uint32 // rows per vector
	keys  []uint64 // per vector: its packed codes, or their hash
	slots []uint32 // 1 + the id of the vector keyed there, or 0 when empty
	shift uint     // 64 − log2(len(slots)): a mixed key's top bits pick its slot
	// exact reports that keys pack the codes, width[j] bits for the j-th.
	exact bool
	width [64]uint8
}

// empty returns a table with t's key layout and room for first vectors.
func (t *vecTable) empty(first int) vecTable {
	slots := slotsFor(first)
	return vecTable{
		q:     t.q,
		slots: make([]uint32, slots),
		codes: make([]uint32, 0, first*t.q),
		count: make([]uint32, 0, first+1),
		keys:  make([]uint64, 0, first),
		shift: shiftFor(slots),
		exact: t.exact,
		width: t.width,
	}
}

// slotsFor returns the slot count of a table for n vectors: the least
// power of two of at least 2n, and at least 2.
func slotsFor(n int) int { return 2 << bits.Len(uint(max(n, 1)-1)) }

// shiftFor returns 64 − log2(slots), for a power-of-two slot count.
func shiftFor(slots int) uint { return uint(65 - bits.Len(uint(slots))) }

// bitsFor returns the bits a code of a dictionary of n codes takes.
func bitsFor(n int) int { return bits.Len(uint(n - 1)) }

// key returns the key of the vector (row[a] for a in attrs).
func (t *vecTable) key(row []uint32, attrs []int) uint64 {
	var k uint64
	if t.exact {
		for j, a := range attrs {
			k = k<<t.width[j] | uint64(row[a])
		}
		return k
	}
	for _, a := range attrs {
		k = (k ^ uint64(row[a])) * mix
	}
	return k
}

// mix is the odd multiplier (2⁶⁴ over the golden ratio) that spreads keys
// over the slots: the top bits of key·mix depend on every bit of the key.
const mix = 0x9e3779b97f4a7c15

// add returns the id of the vector (row[a] for a in attrs), whose key is
// key, adding it with count 0 if it is new. The table holds at most half as
// many vectors as slots, so linear probing stays short.
func (t *vecTable) add(key uint64, row []uint32, attrs []int) uint32 {
	mask := len(t.slots) - 1
	for i := int(key * mix >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			g := uint32(len(t.count))
			t.slots[i] = g + 1
			for _, a := range attrs {
				t.codes = append(t.codes, row[a])
			}
			t.count, t.keys = append(t.count, 0), append(t.keys, key)
			if 2*len(t.count) > len(t.slots) {
				t.grow()
			}
			return g
		}
		if g := s - 1; t.keys[g] == key && (t.exact || sameCodes(t.codes[int(g)*t.q:], row, attrs)) {
			return g
		}
	}
}

// grow quadruples the slots, places every vector's key in them again, and
// makes room for as many vectors as the slots can take, so the per-vector
// tables do not reallocate until the next growth.
func (t *vecTable) grow() {
	t.slots, t.shift = make([]uint32, 4*len(t.slots)), t.shift-2
	more := len(t.slots)/2 - len(t.count)
	t.codes = slices.Grow(t.codes, more*t.q)
	t.count, t.keys = slices.Grow(t.count, more+1), slices.Grow(t.keys, more)
	mask := len(t.slots) - 1
	for g, key := range t.keys {
		i := int(key * mix >> t.shift)
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = uint32(g) + 1
	}
}

// sameCodes reports whether v starts with row's codes on attrs.
func sameCodes(v, row []uint32, attrs []int) bool {
	for j, a := range attrs {
		if v[j] != row[a] {
			return false
		}
	}
	return true
}

// ascending returns 0, 1, …, n−1.
func ascending(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// GroupBy partitions the given rows (all rows if rows is nil) by their
// values on attrs, returning the groups as slices of row indexes. Groups
// come in order of first appearance in rows, each listing its rows in input
// order. The groups are capped subslices (s[lo:hi:hi]) of one backing
// array, so appending to one copies it rather than overwrite the next.
func (r *Relation) GroupBy(attrs []int, rows []int) [][]int {
	d := r.Distinct(attrs, rows, 0)
	groups, out := make([][]int, d.Len()), make([]int, len(d.Pos))
	for i, p := range d.Pos {
		out[i] = int(p)
		if rows != nil {
			out[i] = rows[p]
		}
	}
	for g := range groups {
		lo, hi := d.Start[g], d.Start[g+1]
		groups[g] = out[lo:hi:hi]
	}
	return groups
}

// QIGroups partitions all tuples by their QI attribute values, as GroupBy
// does. Every returned group is a QI-group in the sense of Definition 2.1.
func (r *Relation) QIGroups() [][]int {
	return r.GroupBy(r.schema.QIIndexes(), nil)
}

// DistinctCount returns |Π_attrs(R)|: the number of distinct value
// combinations over the given attributes.
func (r *Relation) DistinctCount(attrs []int) int {
	d := r.Distinct(attrs, nil, 0)
	return d.Len()
}
