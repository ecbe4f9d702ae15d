package relation

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Relation is a dictionary-encoded tuple store over a fixed schema.
//
// Tuples are stored row-major in one flat code array: tuple i occupies
// codes[i*w : i*w+w], one code per attribute in schema order (w is the
// schema's width), drawn from per-attribute dictionaries. The suppression
// marker ★ is code 0 in every dictionary. A Relation is not safe for
// concurrent mutation; the anonymization algorithms in this repository
// treat their input relation as read-only and write their outputs to
// relations of their own.
type Relation struct {
	schema *Schema
	dicts  []*Dictionary
	codes  []uint32
	width  int
	// n is the tuple count, kept apart from len(codes) so a relation over
	// a zero-attribute schema still counts its tuples.
	n int

	// num is the numeric-parse cache, shared by pointer across every
	// relation derived from the same dictionaries.
	num *numericCache
}

// numericCache holds the lazily parsed numeric interpretation of dictionary
// codes, one immutable numericTable per attribute. Parsing depends only on
// the dictionaries, which Derive and Clone share, so the cache is one object
// per relation family referenced by pointer — growth through any member
// stays coherent with the shared dictionaries for all of them. Readers load
// a table atomically; growth builds a larger table under mu and publishes
// it, so concurrent readers of one relation (runs sharing an input,
// parallel Mondrian workers) never race.
type numericCache struct {
	mu     sync.Mutex
	tables []atomic.Pointer[numericTable]
}

// numericTable is one attribute's parse table: vals[code] is the parsed
// value when ok[code] is true. A published table is never written again.
type numericTable struct {
	vals []float64
	ok   []bool
}

// New returns an empty relation with the given schema and fresh
// dictionaries.
func New(schema *Schema) *Relation {
	r := &Relation{
		schema: schema,
		dicts:  make([]*Dictionary, schema.Len()),
		width:  schema.Len(),
		num:    &numericCache{tables: make([]atomic.Pointer[numericTable], schema.Len())},
	}
	for i := range r.dicts {
		r.dicts[i] = NewDictionary()
	}
	return r
}

// Derive returns a new empty relation sharing this relation's schema and
// dictionaries. Rows appended to the derived relation intern values into the
// shared dictionaries, so codes remain comparable across the two relations.
// The numeric-parse cache is shared too (it is a pure function of the
// dictionaries), so cache growth in either relation is visible to both.
func (r *Relation) Derive() *Relation {
	return &Relation{
		schema: r.schema,
		dicts:  r.dicts,
		width:  r.width,
		num:    r.num,
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Dict returns the dictionary for attribute position attr.
func (r *Relation) Dict(attr int) *Dictionary { return r.dicts[attr] }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Grow reserves storage for rows more tuples, so the next rows appends do
// not reallocate.
func (r *Relation) Grow(rows int) {
	r.codes = slices.Grow(r.codes, rows*r.width)
}

// Slice returns the tuples [lo, hi) as a view: a relation sharing this
// relation's dictionaries and storage. SetCode and Suppress on the view
// write through to r (and vice versa); the view's capacity ends at hi, so
// appending to it copies the view first and never overwrites tuple hi of r.
func (r *Relation) Slice(lo, hi int) *Relation {
	if lo < 0 || hi < lo || hi > r.n {
		panic(fmt.Sprintf("relation: Slice(%d, %d) of %d tuples", lo, hi, r.n))
	}
	v := r.Derive()
	v.codes = r.codes[lo*r.width : hi*r.width : hi*r.width]
	v.n = hi - lo
	return v
}

// AppendValues appends one tuple given as strings in schema order and
// returns its row index.
func (r *Relation) AppendValues(values ...string) (int, error) {
	if len(values) != r.width {
		return 0, fmt.Errorf("relation: tuple has %d values, schema has %d attributes", len(values), r.width)
	}
	for i, v := range values {
		r.codes = append(r.codes, r.dicts[i].Code(v))
	}
	r.n++
	return r.n - 1, nil
}

// MustAppendValues is AppendValues that panics on arity mismatch.
func (r *Relation) MustAppendValues(values ...string) int {
	i, err := r.AppendValues(values...)
	if err != nil {
		panic(err)
	}
	return i
}

// AppendCodes appends one tuple given as dictionary codes in schema order.
// The codes must have been issued by this relation's dictionaries. The row
// slice is copied.
func (r *Relation) AppendCodes(codes []uint32) int {
	if len(codes) != r.width {
		panic(fmt.Sprintf("relation: tuple has %d codes, schema has %d attributes", len(codes), r.width))
	}
	r.codes = append(r.codes, codes...)
	r.n++
	return r.n - 1
}

// Row returns the code vector of tuple i. The returned slice aliases the
// relation's storage until the relation next grows (an append may move the
// storage, after which writes through the slice no longer reach the
// relation); callers must not modify it unless they own the relation. Its
// capacity ends with the tuple, so appending to it copies rather than
// overwriting tuple i+1. It panics when i is not in [0, Len()), also when
// spare capacity (after Grow or Truncate) lies past the last tuple.
func (r *Relation) Row(i int) []uint32 {
	if uint(i) >= uint(r.n) {
		panic(rangeError{"row", i, r.n})
	}
	lo := i * r.width
	return r.codes[lo : lo+r.width : lo+r.width]
}

// Code returns the code of attribute attr in tuple i.
func (r *Relation) Code(i, attr int) uint32 { return r.Row(i)[attr] }

// Value returns the string value of attribute attr in tuple i, with ★ for
// suppressed cells.
func (r *Relation) Value(i, attr int) string {
	return r.dicts[attr].Value(r.Code(i, attr))
}

// Values returns tuple i rendered as strings in schema order.
func (r *Relation) Values(i int) []string {
	row := r.Row(i)
	out := make([]string, len(row))
	for a, c := range row {
		out[a] = r.dicts[a].Value(c)
	}
	return out
}

// SetCode overwrites the code of attribute attr in tuple i.
func (r *Relation) SetCode(i, attr int, code uint32) { r.Row(i)[attr] = code }

// Suppress replaces the cell (i, attr) with the suppression marker.
func (r *Relation) Suppress(i, attr int) { r.SetCode(i, attr, StarCode) }

// IsSuppressed reports whether cell (i, attr) holds the suppression marker.
func (r *Relation) IsSuppressed(i, attr int) bool { return r.Code(i, attr) == StarCode }

// Truncate discards all tuples, keeping the schema, dictionaries and row
// storage capacity. It lets enumeration loops (e.g. the brute-force verifier)
// rebuild candidate outputs without reallocating; codes already issued stay
// valid.
func (r *Relation) Truncate() { r.codes, r.n = r.codes[:0], 0 }

// Clone returns a deep copy of the relation: dictionaries are shared (they
// are append-only), the code array is copied.
func (r *Relation) Clone() *Relation {
	nr := r.Derive()
	nr.codes = slices.Clone(r.codes)
	nr.n = r.n
	return nr
}

// Extend appends rows tuples with every cell ★ and returns the index of
// the first. Their cells are then set through Row or SetCode: each tuple
// is its own slice of the storage, so goroutines may fill disjoint tuples
// concurrently, as long as none appends meanwhile.
func (r *Relation) Extend(rows int) int {
	r.codes = append(r.codes, make([]uint32, rows*r.width)...)
	r.n += rows
	return r.n - rows
}

// NumericValue returns the numeric interpretation of code for a numeric
// attribute, and whether the value parses as a number. Results are cached
// per (attribute, code) and safe for concurrent use.
func (r *Relation) NumericValue(attr int, code uint32) (float64, bool) {
	t := r.num.tables[attr].Load()
	if t == nil || int(code) >= len(t.ok) {
		t = r.num.grow(attr, r.dicts[attr])
	}
	if int(code) >= len(t.ok) || !t.ok[code] {
		return 0, false
	}
	return t.vals[code], true
}

// grow publishes attr's parse table extended to the dictionary's current
// size, parsing only the codes the previous table did not cover.
func (nc *numericCache) grow(attr int, d *Dictionary) *numericTable {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	old := nc.tables[attr].Load()
	n := d.Len()
	if old != nil && len(old.ok) >= n {
		return old // another reader grew it first
	}
	t := &numericTable{vals: make([]float64, n), ok: make([]bool, n)}
	start := 0
	if old != nil {
		start = copy(t.vals, old.vals)
		copy(t.ok, old.ok)
	}
	for c := start; c < n; c++ {
		if v, err := strconv.ParseFloat(d.Value(uint32(c)), 64); err == nil {
			t.vals[c], t.ok[c] = v, true
		}
	}
	nc.tables[attr].Store(t)
	return t
}

// NumericRange returns the min and max numeric values present in attribute
// attr over the given rows (all rows if rows is nil), ignoring suppressed
// and non-numeric cells. ok is false when no numeric value is present.
func (r *Relation) NumericRange(attr int, rows []int) (lo, hi float64, ok bool) {
	scan := func(c uint32) {
		if c == StarCode {
			return
		}
		v, parsed := r.NumericValue(attr, c)
		if !parsed {
			return
		}
		if !ok {
			lo, hi, ok = v, v, true
			return
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if rows == nil {
		r.checkAttr(attr)
		for p := attr; p < len(r.codes); p += r.width {
			scan(r.codes[p])
		}
	} else {
		for _, i := range rows {
			scan(r.Code(i, attr))
		}
	}
	return lo, hi, ok
}

// Count returns the number of tuples whose attribute attr holds code.
func (r *Relation) Count(attr int, code uint32) int {
	r.checkAttr(attr)
	n := 0
	for p := attr; p < len(r.codes); p += r.width {
		if r.codes[p] == code {
			n++
		}
	}
	return n
}

// checkAttr panics when attr is not an attribute position. The strided
// column scans need it: past the last attribute they would read the next
// tuple's columns rather than fail.
func (r *Relation) checkAttr(attr int) {
	if uint(attr) >= uint(r.width) {
		panic(rangeError{"attribute", attr, r.width})
	}
}

// rangeError is the panic value for a tuple or attribute index outside
// [0, n). Row and Code panic with a value rather than format a message, so
// that they stay small enough to inline.
type rangeError struct {
	what string
	i, n int
}

func (e rangeError) Error() string {
	return fmt.Sprintf("relation: %s %d out of range [0, %d)", e.what, e.i, e.n)
}

// CountMatch returns the number of tuples matching all (attr, code) pairs.
func (r *Relation) CountMatch(attrs []int, codes []uint32) int {
	n := 0
	w, data := r.width, r.codes
	for i, lo := 0, 0; i < r.n; i, lo = i+1, lo+w {
		if rowMatches(data[lo:lo+w:lo+w], attrs, codes) {
			n++
		}
	}
	return n
}

// MatchingRows returns the indexes of all tuples matching all (attr, code)
// pairs, in row order.
func (r *Relation) MatchingRows(attrs []int, codes []uint32) []int {
	var out []int
	w, data := r.width, r.codes
	for i, lo := 0, 0; i < r.n; i, lo = i+1, lo+w {
		if rowMatches(data[lo:lo+w:lo+w], attrs, codes) {
			out = append(out, i)
		}
	}
	return out
}

func rowMatches(row []uint32, attrs []int, codes []uint32) bool {
	for k, a := range attrs {
		if row[a] != codes[k] {
			return false
		}
	}
	return true
}

// ValueFrequencies returns, for attribute attr, a map from code to the
// number of tuples holding that code (the suppression marker included if
// present).
func (r *Relation) ValueFrequencies(attr int) map[uint32]int {
	r.checkAttr(attr)
	freq := make(map[uint32]int)
	for p := attr; p < len(r.codes); p += r.width {
		freq[r.codes[p]]++
	}
	return freq
}

// SameOn reports whether tuples i and j agree on every attribute in attrs.
func (r *Relation) SameOn(i, j int, attrs []int) bool {
	ri, rj := r.Row(i), r.Row(j)
	for _, a := range attrs {
		if ri[a] != rj[a] {
			return false
		}
	}
	return true
}
