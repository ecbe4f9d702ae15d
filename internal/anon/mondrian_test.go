package anon

import (
	"cmp"
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"diva/internal/par"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/trace"
)

// diffRelation draws a relation exercising every branch of the counting-sort
// Mondrian: ★ cells in every QI column, an unparsable string in a numeric
// column, distinct codes with equal numeric values ("7" and "07"), a numeric
// attribute whose dictionary is far larger than the relation, an occasional
// constant numeric column (cut categorically), and a sensitive column for
// l-diversity.
func diffRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "SEX", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "ZIP", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "CITY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	// Interning ZIP values up front makes its domain much larger than any
	// node, so a cut there must not pay for the domain.
	for z := 0; z < 5000; z++ {
		rel.Dict(2).Code(strconv.Itoa(3 * z))
	}
	constAge := rng.IntN(10) == 0
	cities := 2 + rng.IntN(7)
	for i := 0; i < n; i++ {
		age := strconv.Itoa(20 + rng.IntN(1+rng.IntN(40)))
		switch {
		case constAge:
			age = "40"
		case rng.IntN(15) == 0:
			age = "07"
		case rng.IntN(15) == 0:
			age = "7"
		case rng.IntN(40) == 0:
			age = "unknown"
		}
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			age,
			strconv.Itoa(3*rng.IntN(5000)),
			"C"+strconv.Itoa(rng.IntN(1+rng.IntN(cities))),
			"D"+strconv.Itoa(rng.IntN(3)),
		)
		for a := 0; a < 4; a++ {
			if rng.IntN(25) == 0 {
				rel.Suppress(i, a)
			}
		}
	}
	return rel
}

// TestMondrianMatchesReference differentially checks the counting-sort
// Mondrian against the comparison-sort reference it replaced: identical
// clusters in identical order over random relations, row subsets, k values,
// an l-diversity criterion and every parallelism setting.
func TestMondrianMatchesReference(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x3d1))
		n := 8 + rng.IntN(300)
		if trial%25 == 0 {
			// Large enough for parallel workers to take subtrees.
			n = 3 * spawnGrain
		}
		rel := diffRelation(rng, n)
		rows := allRows(rel)
		if trial%2 == 1 {
			rows = rows[:0:0]
			for r := 0; r < n; r++ {
				if rng.IntN(3) > 0 {
					rows = append(rows, r)
				}
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		for _, k := range []int{2, 3, 10} {
			if len(rows) < k {
				continue
			}
			for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}} {
				if crit != nil && !crit.Holds(rel, rows) {
					continue
				}
				want := referenceMondrian(crit, rel, rows, k)
				for _, par := range []int{1, 0, 4} {
					got, err := (&Mondrian{Criterion: crit, Parallelism: par}).Partition(context.Background(), rel, rows, k)
					if err != nil {
						t.Fatalf("trial %d k=%d crit=%v par=%d: %v", trial, k, crit, par, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d n=%d k=%d crit=%v par=%d: partition diverged from the reference\ngot:  %v\nwant: %v",
							trial, len(rows), k, crit, par, got, want)
					}
				}
			}
		}
	}
}

// compressibleRelation draws a relation whose rows repeat a few hundred QI
// vectors at most, so Mondrian partitions far fewer vectors than rows:
// small numeric and categorical domains, ★ cells in every QI column, and a
// sensitive column for l-diversity. Numeric values never parse as 0, so
// ★ holds a rank of its own, unless shared is set: then one numeric
// column also holds two codes of one rank — "7" beside "07", a literal 0
// beside ★ and an unparsable value, or "35" beside "3.5e1" — and the run
// must fall back to one vector per row. (NaN, which has no place in the
// reference's < order, is TestMondrianNaNColumn's.)
func compressibleRelation(rng *rand.Rand, n int, shared bool) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "SEX", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "ZIP", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "CITY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	ages, zips, cities := 2+rng.IntN(12), 1+rng.IntN(8), 1+rng.IntN(6)
	pair := [][2]string{{"7", "07"}, {"0", "unknown"}, {"35", "3.5e1"}}[rng.IntN(3)]
	for i := 0; i < n; i++ {
		age := strconv.Itoa(20 + 5*rng.IntN(ages))
		if shared && rng.IntN(6) == 0 {
			age = pair[rng.IntN(2)]
		}
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			age,
			strconv.Itoa(1000+rng.IntN(zips)),
			"C"+strconv.Itoa(rng.IntN(cities)),
			"D"+strconv.Itoa(rng.IntN(3)),
		)
		for a := 0; a < 4; a++ {
			if rng.IntN(30) == 0 {
				rel.Suppress(i, a)
			}
		}
	}
	return rel
}

// TestMondrianGroupedMatchesReference is the differential wall for the
// recursion over weighted vectors: on compressible relations, over row
// subsets in shuffled order, k ∈ {1, 2, 3, 10}, no criterion and distinct
// 2-diversity, and Parallelism 1, 0 and 4, Mondrian must return the
// reference's clusters in the reference's order. A fifth of the trials
// hold codes of a shared rank; one trial has 4·par.Grain rows, so the
// group-by kernel splits. Most runs must really group: partition fewer
// vectors than rows.
func TestMondrianGroupedMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	runs, grouped := 0, 0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xc0de))
		n, ks := 8+rng.IntN(400), []int{1, 2, 3, 10}
		switch {
		case trial == 0:
			n, ks = 4*par.Grain, []int{10}
		case trial%20 == 1:
			// Enough vectors for parallel workers to take subtrees.
			n = 8 * spawnGrain
		}
		rel := compressibleRelation(rng, n, trial%5 == 4)
		rows := allRows(rel)
		if trial%2 == 1 {
			rows = rows[:0:0]
			for r := 0; r < n; r++ {
				if rng.IntN(4) > 0 {
					rows = append(rows, r)
				}
			}
		}
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for _, k := range ks {
			if len(rows) < 2*k {
				continue
			}
			if r, _ := newMondrianRun(context.Background(), nil, rel, rows, k, 1); r.vecs.Len() < len(rows) {
				grouped++
			}
			runs++
			for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}} {
				if crit != nil && !crit.Holds(rel, rows) {
					continue
				}
				want := referenceMondrian(crit, rel, rows, k)
				for _, par := range []int{1, 0, 4} {
					got, err := (&Mondrian{Criterion: crit, Parallelism: par}).Partition(context.Background(), rel, rows, k)
					if err != nil {
						t.Fatalf("trial %d k=%d crit=%v par=%d: %v", trial, k, crit, par, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d n=%d k=%d crit=%v par=%d: partition diverged from the reference",
							trial, len(rows), k, crit, par)
					}
				}
			}
		}
	}
	if grouped*3 < runs*2 {
		t.Fatalf("only %d of %d runs partitioned fewer vectors than rows", grouped, runs)
	}
	t.Logf("%d of %d runs grouped rows into vectors", grouped, runs)
}

// TestMondrianClustersDoNotAlias: clusters share one backing array, so each
// must be capped at its own length — appending to one may not write into the
// next cluster or into the caller's rows.
func TestMondrianClustersDoNotAlias(t *testing.T) {
	rel := bigRelation(5, 200)
	rows := allRows(rel)
	orig := slices.Clone(rows)
	for _, par := range []int{1, 0} {
		parts, err := (&Mondrian{Parallelism: par}).Partition(context.Background(), rel, rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) < 2 {
			t.Fatalf("parallelism %d: %d clusters, need at least 2", par, len(parts))
		}
		for i := 0; i+1 < len(parts); i++ {
			next := slices.Clone(parts[i+1])
			parts[i] = append(parts[i], -1)
			if !slices.Equal(parts[i+1], next) {
				t.Fatalf("parallelism %d: appending to cluster %d changed cluster %d", par, i, i+1)
			}
		}
		if !slices.Equal(rows, orig) {
			t.Fatalf("parallelism %d: caller's rows changed", par)
		}
	}
}

// TestMondrianNaNColumn: ParseFloat accepts "NaN", which has no place in a
// < order. NaN takes one fixed rank below every number (cmp.Compare order)
// and stays out of widths, so a NaN-bearing numeric QI column still yields
// a valid k-partition that is the same on every run and at every
// parallelism, with clusters in ascending value order.
func TestMondrianNaNColumn(t *testing.T) {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "X", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	))
	rng := rand.New(rand.NewPCG(4, 4))
	for i := 0; i < 3*spawnGrain; i++ {
		x := strconv.Itoa(rng.IntN(500))
		if rng.IntN(5) == 0 {
			x = "NaN"
		}
		rel.MustAppendValues(x, "s")
	}
	rows := allRows(rel)
	value := func(r int) float64 {
		v, _ := rel.NumericValue(0, rel.Code(r, 0))
		return v
	}
	const k = 4
	first, err := (&Mondrian{Parallelism: 1}).Partition(context.Background(), rel, rows, k)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, "Mondrian", first, rows, k)
	if len(first) < 10 {
		t.Fatalf("only %d clusters — the NaN column was not cut", len(first))
	}
	for i := 0; i+1 < len(first); i++ {
		hi := slices.MaxFunc(first[i], func(x, y int) int { return cmp.Compare(value(x), value(y)) })
		lo := slices.MinFunc(first[i+1], func(x, y int) int { return cmp.Compare(value(x), value(y)) })
		if cmp.Compare(value(hi), value(lo)) > 0 {
			t.Fatalf("cluster %d reaches %v, above cluster %d's %v", i, value(hi), i+1, value(lo))
		}
	}
	if !math.IsNaN(value(first[0][0])) {
		t.Fatalf("first cluster starts at %v, want NaN", value(first[0][0]))
	}
	for _, par := range []int{1, 0, 4} {
		for run := 0; run < 3; run++ {
			got, err := (&Mondrian{Parallelism: par}).Partition(context.Background(), rel, rows, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("parallelism %d run %d: partition differs from the first run", par, run)
			}
		}
	}
}

// skewedRelation draws rows whose QI columns each pile most rows on one
// value, so median cuts leave unbalanced halves on both sides: a
// categorical column is cut in descending frequency order, putting its heavy
// code first and the smaller half on the right, while a numeric column heavy
// at its maximum puts the heavy value last and the smaller half on the left.
// A second numeric column, heavy at its minimum, and ★ cells complete it.
func skewedRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "CAT", Role: relation.QI},
		relation.Attribute{Name: "HI", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "LO", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	heavy := 0.5 + 0.4*rng.Float64()
	pick := func(hot, spread int) string {
		if rng.Float64() < heavy {
			return strconv.Itoa(hot)
		}
		return strconv.Itoa(rng.IntN(spread))
	}
	for i := 0; i < n; i++ {
		rel.MustAppendValues("c"+pick(0, 12), pick(999, 999), pick(0, 300), "D"+strconv.Itoa(rng.IntN(3)))
		for a := 0; a < 3; a++ {
			if rng.IntN(50) == 0 {
				rel.Suppress(i, a)
			}
		}
	}
	return rel
}

// splitShapes tallies, from the split events of a sequential run (emitted
// depth first, so a cut's next event is its left half), the cuts whose
// smaller half is the left one, those whose smaller half is the right one,
// and those leaving a half below 2k rows.
type splitShapes struct {
	events                             []trace.Event
	smallLeft, smallRight, halfBelow2k int
}

func (s *splitShapes) Trace(ev trace.Event) { s.events = append(s.events, ev) }

func (s *splitShapes) tally(k int) {
	for i, ev := range s.events {
		if ev.Label == "" {
			continue
		}
		left := s.events[i+1].N
		right := ev.N - left
		switch {
		case left < right:
			s.smallLeft++
		case right < left:
			s.smallRight++
		}
		if min(left, right) < 2*k {
			s.halfBelow2k++
		}
	}
	s.events = s.events[:0]
}

// TestMondrianSubtractionMatchesReference differentially checks the
// histogram-subtraction recursion on skewed inputs, whose cuts leave the
// smaller half on the left at some nodes and on the right at others and
// halves below 2k rows that keep no histograms, at every parallelism.
func TestMondrianSubtractionMatchesReference(t *testing.T) {
	var shapes splitShapes
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5b7))
		rel := skewedRelation(rng, 40+rng.IntN(1500))
		rows := allRows(rel)
		for _, k := range []int{2, 3, 10} {
			want := referenceMondrian(nil, rel, rows, k)
			for _, par := range []int{1, 4} {
				m := &Mondrian{Parallelism: par}
				if par == 1 {
					m.Tracer = &shapes
				}
				got, err := m.Partition(context.Background(), rel, rows, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d n=%d k=%d par=%d: partition diverged from the reference", trial, len(rows), k, par)
				}
			}
			shapes.tally(k)
		}
	}
	if shapes.smallLeft == 0 || shapes.smallRight == 0 || shapes.halfBelow2k == 0 {
		t.Fatalf("cut shapes not all exercised: %d smaller-left, %d smaller-right, %d with a half below 2k",
			shapes.smallLeft, shapes.smallRight, shapes.halfBelow2k)
	}
}

// TestMondrianHandoffMatchesReference hands subtrees, with their histogram
// sets, to worker goroutines at several levels: 8·spawnGrain rows at
// Parallelism 4 with GOMAXPROCS raised to match, so three spare workers take
// halves at the root's children and below. Under -race this also checks
// that a handed-off half shares no histogram memory with its sibling.
func TestMondrianHandoffMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x4a0))
		var rel *relation.Relation
		if seed%2 == 0 {
			rel = diffRelation(rng, 8*spawnGrain)
		} else {
			rel = skewedRelation(rng, 8*spawnGrain)
		}
		rows := allRows(rel)
		for _, k := range []int{2, 10} {
			want := referenceMondrian(nil, rel, rows, k)
			for run := 0; run < 3; run++ {
				got, err := (&Mondrian{Parallelism: 4}).Partition(context.Background(), rel, rows, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d run %d: parallel partition diverged from the reference", seed, k, run)
				}
			}
		}
	}
}

// TestMondrianSplitFillMatchesReference partitions inputs of 4·par.Grain
// rows at Parallelism 4 with GOMAXPROCS raised to match, so the group-by
// kernel hashes the rows into vectors on four workers and merges their
// tables, and requires the reference partition.
func TestMondrianSplitFillMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for seed := uint64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xf111))
		var rel *relation.Relation
		if seed%2 == 0 {
			rel = diffRelation(rng, 4*par.Grain)
		} else {
			rel = skewedRelation(rng, 4*par.Grain)
		}
		rows := allRows(rel)
		want := referenceMondrian(nil, rel, rows, 10)
		got, err := (&Mondrian{Parallelism: 4}).Partition(context.Background(), rel, rows, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: partition with a split group-by diverged from the reference", seed)
		}
	}
}

// TestMondrianMemoryBound pins that histogram memory does not grow with
// recursion depth: a numeric QI interned with a 100,000-code dictionary,
// cut about twelve levels deep at k=2, must allocate under 64 bytes per
// row·QI attribute plus 64 per dictionary code. The rank tables and the two
// dense histogram sets take about 41 bytes per code; one dense set per
// recursion level would add 4 more per code and level, about 48 here.
func TestMondrianMemoryBound(t *testing.T) {
	const n, domain, k = 8192, 100000, 2
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "X", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "C", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	))
	for v := 0; v < domain; v++ {
		rel.Dict(0).Code(strconv.Itoa(v))
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < n; i++ {
		rel.MustAppendValues(strconv.Itoa(rng.IntN(domain)), "c"+strconv.Itoa(rng.IntN(6)), "s")
	}
	rows := allRows(rel)
	m := &Mondrian{Parallelism: 1}
	partition := func() [][]int {
		parts, err := m.Partition(context.Background(), rel, rows, k)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	partition() // fills the relation's numeric cache, which outlives the call
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parts := partition()
	runtime.ReadMemStats(&after)
	if len(parts) < n/(4*k) {
		t.Fatalf("only %d clusters: the input was not cut deeply", len(parts))
	}
	dict := 0
	for _, a := range rel.Schema().QIIndexes() {
		dict += rel.Dict(a).Len()
	}
	q := len(rel.Schema().QIIndexes())
	bound := 64*uint64(n*q) + 64*uint64(dict)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Partition allocated %d bytes, over the bound %d (64·|rows|·|QI| + 64·dictionary codes)", got, bound)
	}
}
