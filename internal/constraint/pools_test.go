package constraint_test

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/relation"
)

// poolsSchema is the fuzz fixture's schema: three QIs and a sensitive
// attribute, so targets can be QI-only, mixed or sensitive-only.
var poolsSchema = relation.MustSchema(
	relation.Attribute{Name: "A", Role: relation.QI},
	relation.Attribute{Name: "B", Role: relation.QI},
	relation.Attribute{Name: "C", Role: relation.QI},
	relation.Attribute{Name: "S", Role: relation.Sensitive},
)

// poolsInstance decodes a fuzz input into a relation and bounds over it.
//
// cells holds one byte per cell, four per row: v%5 == 0 is ★, otherwise the
// value "v<v%5>". sigma is a sequence of targets, each a mask byte m (the
// attributes A, B, C, S are bits 0..3 of m%15+1) followed by one byte per
// attribute u: u%6 == 5 is "never", otherwise "v<u%5>"; "v0" and "never"
// never occur in a row. shape bit 0 builds the rows in a relation derived
// from one that interned every value (in reverse order) first; shape>>1
// picks the offset of the Slice view the bounds are bound against.
func poolsInstance(t *testing.T, cells, sigma []byte, shape byte) (*relation.Relation, []*constraint.Bound) {
	rows := min(len(cells)/4, 64)
	rel := relation.New(poolsSchema)
	if shape&1 != 0 {
		base := rel
		for v := 4; v >= 0; v-- {
			val := "v" + strconv.Itoa(v)
			base.MustAppendValues(val, val, val, val)
		}
		rel = base.Derive()
	}
	for r := 0; r < rows; r++ {
		vals := make([]string, 4)
		for a := range vals {
			if v := cells[4*r+a] % 5; v == 0 {
				vals[a] = relation.Star
			} else {
				vals[a] = "v" + strconv.Itoa(int(v))
			}
		}
		rel.MustAppendValues(vals...)
	}
	view := rel.Slice(int(shape>>1)%(rows+1), rows)
	var bounds []*constraint.Bound
	for len(sigma) > 0 && len(bounds) < 12 {
		mask := sigma[0]%15 + 1
		sigma = sigma[1:]
		var attrs, values []string
		for a := 0; a < 4 && len(sigma) > 0; a++ {
			if mask&(1<<a) == 0 {
				continue
			}
			val := "never"
			if u := sigma[0] % 6; u < 5 {
				val = "v" + strconv.Itoa(int(u))
			}
			sigma = sigma[1:]
			attrs = append(attrs, poolsSchema.Attr(a).Name)
			values = append(values, val)
		}
		if len(attrs) == 0 {
			break
		}
		b, err := constraint.NewMulti(attrs, values, 0, 1).Bound(view)
		if err != nil {
			t.Fatalf("Bound(%v %v): %v", attrs, values, err)
		}
		bounds = append(bounds, b)
	}
	return view, bounds
}

// referencePool is TargetQIRows from first principles: the rows matching
// the target's QI components, none when one of those values is not in the
// dictionary, every row when there are none.
func referencePool(rel *relation.Relation, b *constraint.Bound) []int {
	var attrs []int
	var codes []uint32
	for i, a := range b.Attrs {
		if rel.Schema().Attr(a).Role != relation.QI {
			continue
		}
		code, ok := rel.Dict(a).Lookup(b.Source.Values[i])
		if !ok {
			return nil
		}
		attrs, codes = append(attrs, a), append(codes, code)
	}
	return rel.MatchingRows(attrs, codes)
}

// FuzzPoolsAndCounts holds the Σ-wide indexed pass to per-bound references:
// every Pools entry equals the bound's own MatchingRows over its QI part,
// and every Counts entry equals CountIn, the per-bound scan the output
// verifier checks against.
func FuzzPoolsAndCounts(f *testing.F) {
	rowsOf := func(rows ...[4]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r[:]...)
		}
		return out
	}
	mixed := rowsOf(
		[4]byte{1, 2, 3, 4}, [4]byte{1, 2, 0, 1}, [4]byte{0, 2, 3, 4}, [4]byte{1, 0, 3, 2},
		[4]byte{1, 2, 3, 4}, [4]byte{2, 2, 1, 4}, [4]byte{1, 3, 3, 0}, [4]byte{4, 4, 4, 4},
	)
	// Target bytes: mask A=0, B=1, AB=2, C=3, S=7, AS=8; values v1..v4 =
	// 1..4, v0 = 0 and never = 5.
	for _, seed := range []struct {
		cells, sigma []byte
		shape        byte
	}{
		{mixed, []byte{0, 1}, 0},                                    // A[v1] over ★ cells
		{mixed, []byte{2, 1, 2}, 0},                                 // multi-attribute A[v1] B[v2]
		{mixed, []byte{8, 1, 4}, 0},                                 // mixed A[v1] S[v4]
		{mixed, []byte{7, 4}, 0},                                    // sensitive-only S[v4]: every row
		{mixed, []byte{0, 5, 8, 5, 4, 8, 1, 0, 7, 5}, 0},            // unseen values
		{mixed, []byte{0, 1, 2, 1, 2, 8, 1, 3, 0, 1}, 0},            // one (A, v1) bucket
		{mixed, []byte{0, 1, 1, 2, 3, 3, 7, 4, 2, 4, 3}, 0},         // keyed on A, B, C, S
		{mixed, []byte{0, 1, 2, 1, 2, 8, 4, 4, 3, 0}, 1},            // Derived relation
		{mixed, []byte{0, 1, 2, 1, 2, 7, 4, 3, 3}, 3 << 1},          // Slice at offset 3
		{mixed, []byte{0, 1, 8, 1, 4, 7, 2, 1, 4}, 1 | 5<<1},        // Derived and sliced
		{nil, []byte{0, 1, 7, 4}, 0},                                // no rows
		{rowsOf([4]byte{5, 10, 15, 20}), []byte{0, 0, 7, 0}, 0},     // all ★
		{mixed, []byte{14, 1, 2, 3, 4, 6, 1, 2, 3, 13, 2, 3, 4}, 0}, // wide targets
	} {
		f.Add(seed.cells, seed.sigma, seed.shape)
	}
	f.Fuzz(func(t *testing.T, cells, sigma []byte, shape byte) {
		rel, bounds := poolsInstance(t, cells, sigma, shape)
		pools, counts := constraint.Pools(rel, bounds, 1), constraint.Counts(rel, bounds, 1)
		if len(pools) != len(bounds) || len(counts) != len(bounds) {
			t.Fatalf("%d bounds: %d pools, %d counts", len(bounds), len(pools), len(counts))
		}
		for i, b := range bounds {
			if want := referencePool(rel, b); !slices.Equal(pools[i], want) {
				t.Fatalf("bound %d (%s): Pools %v, reference %v", i, b, pools[i], want)
			}
			if cap(pools[i]) != len(pools[i]) {
				t.Fatalf("bound %d (%s): pool capacity %d past its %d rows", i, b, cap(pools[i]), len(pools[i]))
			}
			if want := b.CountIn(rel); counts[i] != want {
				t.Fatalf("bound %d (%s): Counts %d, CountIn %d", i, b, counts[i], want)
			}
		}
	})
}

// TestPoolsSpanChunks holds Pools to the references on pools longer than
// the fuzz relations reach: thousands of rows, with a pool of exactly 2048
// rows, repeated targets, and a sensitive-only target's every-row pool.
func TestPoolsSpanChunks(t *testing.T) {
	rel := relation.New(poolsSchema)
	for r := 0; r < 5000; r++ {
		a := "v1"
		if r >= 2048 {
			a = "v2"
		}
		rel.MustAppendValues(a, "v"+strconv.Itoa(1+r%3), "v"+strconv.Itoa(1+r%4), "v"+strconv.Itoa(1+r%2))
	}
	var bounds []*constraint.Bound
	for _, c := range []constraint.Constraint{
		constraint.New("A", "v1", 0, 1),
		constraint.New("A", "v2", 0, 1),
		constraint.NewMulti([]string{"A", "B"}, []string{"v2", "v1"}, 0, 1),
		constraint.New("S", "v2", 0, 1),
		constraint.New("A", "v1", 0, 1),
		constraint.NewMulti([]string{"C", "S"}, []string{"v3", "v1"}, 0, 1),
	} {
		b, err := c.Bound(rel)
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, b)
	}
	pools, counts := constraint.Pools(rel, bounds, 1), constraint.Counts(rel, bounds, 1)
	for i, b := range bounds {
		if want := referencePool(rel, b); !slices.Equal(pools[i], want) {
			t.Fatalf("bound %d (%s): Pools has %d rows, reference %d", i, b, len(pools[i]), len(want))
		}
		if want := b.CountIn(rel); counts[i] != want {
			t.Fatalf("bound %d (%s): Counts %d, CountIn %d", i, b, counts[i], want)
		}
	}
	if len(pools[0]) != 2048 {
		t.Fatalf("A[v1] pool has %d rows, want 2048", len(pools[0]))
	}
}

// censusSplitInstance is a census sample above the split grain with the
// bench's proportional Σ (k=10, UpperFrac 0.9), plus a multi-attribute
// QI target and a mixed QI–sensitive target built from its first row, so
// a split scan also runs the full-target checks.
func censusSplitInstance(t *testing.T) (*relation.Relation, []*constraint.Bound) {
	t.Helper()
	rel := dataset.CensusSized(40000).Generate(40000, 20210323)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     8,
		K:         10,
		Rng:       rand.New(rand.NewPCG(0x51a3, 0x51a3)),
		UpperFrac: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	schema := rel.Schema()
	qi := schema.QIIndexes()
	name := func(a int) string { return schema.Attr(a).Name }
	sigma = append(sigma, constraint.NewMulti(
		[]string{name(qi[0]), name(qi[1])}, []string{rel.Value(0, qi[0]), rel.Value(0, qi[1])}, 0, rel.Len()))
	for a := 0; a < schema.Len(); a++ {
		if schema.Attr(a).Role == relation.Sensitive {
			sigma = append(sigma, constraint.NewMulti(
				[]string{name(qi[0]), name(a)}, []string{rel.Value(0, qi[0]), rel.Value(0, a)}, 0, rel.Len()))
			break
		}
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatal(err)
	}
	return rel, bounds
}

// TestSplitScansMatchOneWorker holds Pools and Counts split across 2 and 4
// workers, and across GOMAXPROCS (raised to 4), to their one-worker
// results on a 40,000-row census sample, where every range fills chunks of
// its own.
func TestSplitScansMatchOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rel, bounds := censusSplitInstance(t)
	wantPools, wantCounts := constraint.Pools(rel, bounds, 1), constraint.Counts(rel, bounds, 1)
	for i, b := range bounds {
		if want := referencePool(rel, b); !slices.Equal(wantPools[i], want) {
			t.Fatalf("bound %d (%s): one-worker pool has %d rows, reference %d", i, b, len(wantPools[i]), len(want))
		}
	}
	for _, p := range []int{2, 4, 0} {
		pools, counts := constraint.Pools(rel, bounds, p), constraint.Counts(rel, bounds, p)
		for i, b := range bounds {
			if !slices.Equal(pools[i], wantPools[i]) || cap(pools[i]) != len(pools[i]) {
				t.Fatalf("parallelism %d, bound %d (%s): split pool differs from one worker's", p, i, b)
			}
		}
		if !slices.Equal(counts, wantCounts) {
			t.Fatalf("parallelism %d: split counts %v, one worker %v", p, counts, wantCounts)
		}
	}
}

// Benchmark sinks keep the measured calls from being optimized away.
var (
	poolSink   []int
	poolsSink  [][]int
	countSink  int
	countsSink []int
)

// splitWorkers are the settings the split passes are benchmarked at: one
// worker, on the caller, and all of GOMAXPROCS.
var splitWorkers = []struct {
	name        string
	parallelism int
}{{"1", 1}, {"all", 0}}

// BenchmarkPools measures the Σ-wide pass against one scan per bound on a
// census-300k-shaped relation with the bench's proportional Σ of 8
// constraints: pools (TargetQIRows, or a plain MatchingRows scan, per bound
// vs Pools) and occurrence counts (CountIn per bound vs Counts). The
// targets are QI-only, so MatchingRows on the full target is the pool.
// Pools and Counts run on one worker and on all cores.
func BenchmarkPools(b *testing.B) {
	rel := dataset.CensusSized(dataset.CensusRows).Generate(dataset.CensusRows, 20210323)
	sigma, err := constraint.Proportional(rel, constraint.GenOptions{
		Count:     8,
		K:         10,
		Rng:       rand.New(rand.NewPCG(0x51a3, 0x51a3)),
		UpperFrac: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("TargetQIRows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bound := range bounds {
				poolSink = bound.TargetQIRows(rel)
			}
		}
	})
	b.Run("MatchingRows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bound := range bounds {
				poolSink = rel.MatchingRows(bound.Attrs, bound.Codes)
			}
		}
	})
	for _, w := range splitWorkers {
		b.Run("Pools/workers="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				poolsSink = constraint.Pools(rel, bounds, w.parallelism)
			}
		})
	}
	b.Run("CountIn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bound := range bounds {
				countSink += bound.CountIn(rel)
			}
		}
	})
	for _, w := range splitWorkers {
		b.Run("Counts/workers="+w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countsSink = constraint.Counts(rel, bounds, w.parallelism)
			}
		})
	}
}
