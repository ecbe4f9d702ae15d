package rowset

import (
	"diva/internal/testutil"
	"sort"
	"testing"
)

// model is the reference implementation a Set must agree with.
type model map[int]bool

func (m model) slice() []int {
	out := make([]int, 0, len(m))
	for i, in := range m {
		if in {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// check asserts full observational equivalence between s and m.
func check(t *testing.T, s *Set, m model) {
	t.Helper()
	want := m.slice()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, model has %d", s.Len(), len(want))
	}
	got := s.Slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, model %v", got, want)
		}
	}
	for i := 0; i < s.Universe(); i++ {
		if s.Contains(i) != m[i] {
			t.Fatalf("Contains(%d) = %v, model %v", i, s.Contains(i), m[i])
		}
	}
	if fp := s.Fingerprint(); fp != Fingerprint(want) {
		t.Fatalf("Fingerprint = %#x, slice fingerprint %#x", fp, Fingerprint(want))
	}
	// Iteration must visit exactly the members, ascending, honoring early
	// stop.
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return true
	})
	if len(visited) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", visited, want)
		}
	}
}

// TestSetAgainstModel drives random single-element operations against the
// map model.
func TestSetAgainstModel(t *testing.T) {
	const n = 300
	rng := testutil.Rng(t)
	s := New(n)
	m := model{}
	for step := 0; step < 5000; step++ {
		i := rng.IntN(n)
		switch rng.IntN(4) {
		case 0, 1: // bias toward insertion so the set fills up
			s.Add(i)
			m[i] = true
		case 2:
			s.Remove(i)
			delete(m, i)
		case 3:
			if s.Contains(i) != m[i] {
				t.Fatalf("step %d: Contains(%d) diverged", step, i)
			}
		}
		if step%500 == 0 {
			check(t, s, m)
		}
	}
	check(t, s, m)
}

// TestSetAlgebraAgainstModel drives the bulk operations (Union, Intersect,
// Difference, Clone, CopyFrom, Clear) against the model.
func TestSetAlgebraAgainstModel(t *testing.T) {
	const n = 257 // off word boundary on purpose
	rng := testutil.Rng(t)
	randomPair := func() (*Set, model) {
		s, m := New(n), model{}
		for k := 0; k < rng.IntN(2*n); k++ {
			i := rng.IntN(n)
			s.Add(i)
			m[i] = true
		}
		return s, m
	}
	for trial := 0; trial < 200; trial++ {
		a, ma := randomPair()
		b, mb := randomPair()

		inter := 0
		overlap := false
		for i := range mb {
			if ma[i] {
				inter++
				overlap = true
			}
		}
		if got := a.IntersectionCount(b); got != inter {
			t.Fatalf("IntersectionCount = %d, want %d", got, inter)
		}
		if got := a.Intersects(b); got != overlap {
			t.Fatalf("Intersects = %v, want %v", got, overlap)
		}

		c := a.Clone()
		mc := model{}
		for i := range ma {
			mc[i] = ma[i]
		}
		switch trial % 3 {
		case 0:
			c.Union(b)
			for i := range mb {
				if mb[i] {
					mc[i] = true
				}
			}
		case 1:
			c.Intersect(b)
			for i := range mc {
				if !mb[i] {
					delete(mc, i)
				}
			}
		case 2:
			c.Difference(b)
			for i := range mb {
				delete(mc, i)
			}
		}
		check(t, c, mc)
		check(t, a, ma) // the operand must be untouched

		d := New(n)
		d.CopyFrom(c)
		check(t, d, mc)
		d.Clear()
		check(t, d, model{})
	}
}

// TestFingerprintIncrementalMatchesRecomputed checks the incremental
// (Add/Remove) fingerprint path against the lazy recomputation path after
// word-level operations.
func TestFingerprintIncrementalMatchesRecomputed(t *testing.T) {
	const n = 500
	rng := testutil.Rng(t)
	a, b := New(n), New(n)
	for k := 0; k < 400; k++ {
		a.Add(rng.IntN(n))
		b.Add(rng.IntN(n))
	}
	u := a.Clone()
	u.Union(b) // invalidates the incremental fingerprint
	fresh := FromSlice(n, u.Slice())
	if u.Fingerprint() != fresh.Fingerprint() {
		t.Fatalf("recomputed fingerprint %#x != incremental %#x", u.Fingerprint(), fresh.Fingerprint())
	}
	// Idempotent Add/Remove must not perturb the fingerprint.
	fp := a.Fingerprint()
	row := a.Slice()[0]
	a.Add(row)
	if a.Fingerprint() != fp {
		t.Fatal("re-adding a present row changed the fingerprint")
	}
	a.Remove(row)
	a.Add(row)
	if a.Fingerprint() != fp {
		t.Fatal("remove+add round trip changed the fingerprint")
	}
}

// TestFingerprintInMatchesIntersection checks FingerprintIn against the
// fingerprint of a materialized intersection.
func TestFingerprintInMatchesIntersection(t *testing.T) {
	const n = 300
	rng := testutil.Rng(t)
	for trial := 0; trial < 20; trial++ {
		s, rows := New(n), New(n)
		for k := 0; k < 100; k++ {
			s.Add(rng.IntN(n))
			rows.Add(rng.IntN(n))
		}
		want := rows.Clone()
		want.Intersect(s)
		if got := s.FingerprintIn(rows.Slice()); got != want.Fingerprint() {
			t.Fatalf("FingerprintIn = %#x, fingerprint of the intersection %#x", got, want.Fingerprint())
		}
	}
}

// TestNewBatchSetsAreIndependent fills sets sharing one backing array,
// including one whose universe ends mid-word, and checks that none sees
// another's rows.
func TestNewBatchSetsAreIndependent(t *testing.T) {
	const n = 70
	sets := NewBatch(n, 3)
	ms := []model{{}, {}, {}}
	rng := testutil.Rng(t)
	for k := 0; k < 200; k++ {
		i, row := rng.IntN(3), rng.IntN(n)
		sets[i].Add(row)
		ms[i][row] = true
	}
	sets[1].Add(n - 1)
	ms[1][n-1] = true
	for i := range sets {
		check(t, &sets[i], ms[i])
		if sets[i].Fingerprint() != Fingerprint(ms[i].slice()) {
			t.Fatalf("set %d: fingerprint does not match its rows", i)
		}
	}
	if len(NewBatch(n, 0)) != 0 {
		t.Fatal("NewBatch(n, 0) returned sets")
	}
}

func TestFingerprintDistinguishesSmallSets(t *testing.T) {
	seen := map[uint64][]int{}
	for i := 0; i < 100; i++ {
		for j := i; j < 100; j++ {
			rows := []int{i}
			if j != i {
				rows = append(rows, j)
			}
			fp := Fingerprint(rows)
			if prev, dup := seen[fp]; dup {
				t.Fatalf("fingerprint collision: %v and %v", prev, rows)
			}
			seen[fp] = rows
		}
	}
	if Fingerprint(nil) != 0 {
		t.Fatal("empty fingerprint must be 0")
	}
}

func TestPoolRecycles(t *testing.T) {
	p := NewPool(128)
	s := p.Get()
	s.AddSlice([]int{1, 2, 3})
	p.Put(s)
	r := p.Get()
	if r != s {
		t.Fatal("pool did not recycle the returned set")
	}
	if r.Len() != 0 || r.Fingerprint() != 0 {
		t.Fatalf("recycled set not cleared: len=%d", r.Len())
	}
	// A foreign-universe set must be rejected, not poison the pool.
	p.Put(New(64))
	if got := p.Get(); got.Universe() != 128 {
		t.Fatalf("pool handed out universe %d", got.Universe())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(200, []int{3, 64, 65, 130})
	var visited []int
	s.ForEach(func(i int) bool {
		visited = append(visited, i)
		return len(visited) < 2
	})
	if len(visited) != 2 || visited[0] != 3 || visited[1] != 64 {
		t.Fatalf("ForEach early stop visited %v", visited)
	}
}

// FuzzSetOps feeds an arbitrary op-tape to a Set and the model and asserts
// equivalence of every observable.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 0, 0, 9}, uint16(70))
	f.Add([]byte{10, 10, 130, 10}, uint16(64))
	f.Fuzz(func(t *testing.T, tape []byte, size uint16) {
		n := int(size%1024) + 1
		s := New(n)
		m := model{}
		other := New(n)
		for k := 0; k+1 < len(tape); k += 2 {
			op, arg := tape[k], int(tape[k+1])%n
			switch op % 6 {
			case 0:
				s.Add(arg)
				m[arg] = true
			case 1:
				s.Remove(arg)
				delete(m, arg)
			case 2:
				other.Add(arg)
			case 3:
				s.Union(other)
				other.ForEach(func(i int) bool {
					m[i] = true
					return true
				})
			case 4:
				s.Difference(other)
				other.ForEach(func(i int) bool {
					delete(m, i)
					return true
				})
			case 5:
				s.Intersect(other)
				for i := range m {
					if !other.Contains(i) {
						delete(m, i)
					}
				}
			}
		}
		want := m.slice()
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, model %d", s.Len(), len(want))
		}
		got := s.Slice()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Slice = %v, model %v", got, want)
			}
		}
		if s.Fingerprint() != Fingerprint(want) {
			t.Fatal("fingerprint diverged from slice fingerprint")
		}
		if c := s.Clone(); !c.Equal(s) {
			t.Fatal("clone not equal")
		}
	})
}
