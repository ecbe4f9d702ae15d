// Package rowset provides the engine's shared row-set representation: a
// dense bitset over tuple indexes of one relation. Every layer of DIVA's
// inner loop is set algebra over row indexes — constraint target sets Iσ,
// candidate clusters, the coloring search's used-row set, overlap and
// disjointness checks — and this package gives them all one compact type
// with O(n/64) bulk operations, O(1) membership, and a cheap 64-bit
// fingerprint for set identity.
//
// Fingerprints are Zobrist hashes: each row index i contributes a fixed
// pseudo-random 64-bit value Hash(i), and a set's fingerprint is the XOR of
// its members' values. XOR makes the fingerprint order-independent and
// incrementally maintainable under Add/Remove, so Fingerprint is O(1) on
// the mutation-only paths the search uses. Two distinct sets collide with
// probability ~2⁻⁶⁴; the engine uses fingerprints as map keys for cluster
// identity ("disjoint unless equal") and for candidate-cache addresses,
// where a collision is harmless to safety (it can only merge two identical
// hash buckets) and astronomically unlikely.
//
// Sets are not safe for concurrent mutation. Concurrent readers are fine;
// the portfolio search gives each worker its own sets and merges results by
// Union, which bitsets make trivial.
package rowset

import "math/bits"

const wordBits = 64

// Set is a dense bitset over the row universe [0, Universe()).
type Set struct {
	words []uint64
	n     int
	count int
	fp    uint64
	fpOK  bool
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
		fpOK:  true,
	}
}

// NewBatch returns count empty sets over [0, n) that share one backing
// array: two allocations however many sets, for callers that keep one set
// per item of a collection.
func NewBatch(n, count int) []Set {
	per := (n + wordBits - 1) / wordBits
	words := make([]uint64, per*count)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*per : (i+1)*per : (i+1)*per], n: n, fpOK: true}
	}
	return sets
}

// FromSlice returns a set over [0, n) holding the given rows.
func FromSlice(n int, rows []int) *Set {
	s := New(n)
	s.AddSlice(rows)
	return s
}

// Universe returns the size n of the row universe [0, n).
func (s *Set) Universe() int { return s.n }

// Len returns the number of rows in the set. It is O(1): the cardinality is
// maintained across all mutations.
func (s *Set) Len() int { return s.count }

// Contains reports whether row i is in the set.
func (s *Set) Contains(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Add inserts row i; inserting a present row is a no-op.
func (s *Set) Add(i int) {
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&b != 0 {
		return
	}
	s.words[w] |= b
	s.count++
	if s.fpOK {
		s.fp ^= Hash(i)
	}
}

// Remove deletes row i; deleting an absent row is a no-op.
func (s *Set) Remove(i int) {
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	if s.words[w]&b == 0 {
		return
	}
	s.words[w] &^= b
	s.count--
	if s.fpOK {
		s.fp ^= Hash(i)
	}
}

// AddSlice inserts every row in rows.
func (s *Set) AddSlice(rows []int) {
	for _, i := range rows {
		s.Add(i)
	}
}

// RemoveSlice deletes every row in rows.
func (s *Set) RemoveSlice(rows []int) {
	for _, i := range rows {
		s.Remove(i)
	}
}

// Clear empties the set, keeping its universe and capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
	s.fp = 0
	s.fpOK = true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{
		words: make([]uint64, len(s.words)),
		n:     s.n,
		count: s.count,
		fp:    s.fp,
		fpOK:  s.fpOK,
	}
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s an exact copy of o. The sets must share a universe size.
func (s *Set) CopyFrom(o *Set) {
	if s.n != o.n {
		panic("rowset: CopyFrom across universes")
	}
	copy(s.words, o.words)
	s.count = o.count
	s.fp = o.fp
	s.fpOK = o.fpOK
}

// Union adds every row of o to s (s ∪= o). The sets must share a universe
// size.
func (s *Set) Union(o *Set) {
	s.binop(o, func(a, b uint64) uint64 { return a | b })
}

// Intersect removes from s every row not in o (s ∩= o).
func (s *Set) Intersect(o *Set) {
	s.binop(o, func(a, b uint64) uint64 { return a & b })
}

// Difference removes every row of o from s (s ∖= o).
func (s *Set) Difference(o *Set) {
	s.binop(o, func(a, b uint64) uint64 { return a &^ b })
}

func (s *Set) binop(o *Set, f func(a, b uint64) uint64) {
	if s.n != o.n {
		panic("rowset: operation across universes")
	}
	count := 0
	for i, w := range o.words {
		nw := f(s.words[i], w)
		s.words[i] = nw
		count += bits.OnesCount64(nw)
	}
	s.count = count
	s.fpOK = false // recomputed lazily by Fingerprint
}

// Intersects reports whether s and o share at least one row.
func (s *Set) Intersects(o *Set) bool {
	if s.n != o.n {
		panic("rowset: operation across universes")
	}
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ o| without materializing the intersection.
func (s *Set) IntersectionCount(o *Set) int {
	if s.n != o.n {
		panic("rowset: operation across universes")
	}
	n := 0
	for i, w := range o.words {
		n += bits.OnesCount64(s.words[i] & w)
	}
	return n
}

// Equal reports whether s and o hold exactly the same rows.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n || s.count != o.count {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls f on every row in ascending order until f returns false.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the set's rows to dst in ascending order and returns the
// extended slice — the sorted-slice view used at API edges.
func (s *Set) AppendTo(dst []int) []int {
	s.ForEach(func(i int) bool {
		dst = append(dst, i)
		return true
	})
	return dst
}

// Slice returns the set's rows as a fresh ascending slice.
func (s *Set) Slice() []int {
	return s.AppendTo(make([]int, 0, s.count))
}

// Fingerprint returns the set's 64-bit Zobrist fingerprint: the XOR of
// Hash(i) over its members (0 for the empty set). Equal sets always share a
// fingerprint; distinct sets collide with probability ~2⁻⁶⁴. After bulk
// word-level operations the fingerprint is recomputed on first use; on
// Add/Remove paths it is maintained incrementally and this is O(1).
func (s *Set) Fingerprint() uint64 {
	if !s.fpOK {
		fp := uint64(0)
		s.ForEach(func(i int) bool {
			fp ^= Hash(i)
			return true
		})
		s.fp = fp
		s.fpOK = true
	}
	return s.fp
}

// Hash returns the fixed 64-bit Zobrist value of row index i (a splitmix64
// finalization). It is the per-element basis of all fingerprints in this
// package.
func Hash(i int) uint64 {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FingerprintIn returns the Zobrist fingerprint of the rows of rows that
// lie in s: the XOR of Hash(i) over rows ∩ s, for duplicate-free rows. XOR
// it into a running fingerprint to track some other set's intersection
// with s as rows join and leave that set.
func (s *Set) FingerprintIn(rows []int) uint64 {
	fp := uint64(0)
	for _, i := range rows {
		if s.Contains(i) {
			fp ^= Hash(i)
		}
	}
	return fp
}

// Fingerprint returns the Zobrist fingerprint of a row slice: equal row
// sets yield equal fingerprints regardless of order or representation, and
// Fingerprint(rows) == FromSlice(n, rows).Fingerprint() for duplicate-free
// rows. It is the allocation-free identity used for clusters ("disjoint
// unless equal").
func Fingerprint(rows []int) uint64 {
	fp := uint64(0)
	for _, i := range rows {
		fp ^= Hash(i)
	}
	return fp
}
