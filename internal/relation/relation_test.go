package relation

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"diva/internal/par"
	"diva/internal/testutil"
)

func testSchema() *Schema {
	return MustSchema(
		Attribute{Name: "GEN", Role: QI},
		Attribute{Name: "AGE", Role: QI, Kind: Numeric},
		Attribute{Name: "CTY", Role: QI},
		Attribute{Name: "DIAG", Role: Sensitive},
	)
}

func testRelation(t testing.TB) *Relation {
	t.Helper()
	r := New(testSchema())
	rows := [][]string{
		{"M", "30", "Calgary", "Flu"},
		{"F", "40", "Calgary", "Flu"},
		{"M", "30", "Toronto", "Cold"},
		{"F", "50", "Toronto", "Flu"},
		{"M", "30", "Calgary", "Cold"},
	}
	for _, row := range rows {
		r.MustAppendValues(row...)
	}
	return r
}

func TestDictionaryInterning(t *testing.T) {
	d := NewDictionary()
	if d.Len() != 1 || d.Value(StarCode) != Star {
		t.Fatalf("fresh dictionary: len=%d value(0)=%q", d.Len(), d.Value(StarCode))
	}
	a := d.Code("alpha")
	b := d.Code("beta")
	if a == b || a == StarCode || b == StarCode {
		t.Fatalf("codes collide: a=%d b=%d", a, b)
	}
	if again := d.Code("alpha"); again != a {
		t.Fatalf("re-interning changed code: %d != %d", again, a)
	}
	if got, ok := d.Lookup("beta"); !ok || got != b {
		t.Fatalf("Lookup(beta) = %d, %t", got, ok)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup(gamma) reported present")
	}
	if d.Cardinality() != 2 {
		t.Fatalf("Cardinality = %d, want 2", d.Cardinality())
	}
	if got := d.Values(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Values = %v", got)
	}
}

func TestDictionaryClone(t *testing.T) {
	d := NewDictionary()
	d.Code("x")
	c := d.Clone()
	c.Code("y")
	if _, ok := d.Lookup("y"); ok {
		t.Fatal("clone mutation leaked into original")
	}
	if got, ok := c.Lookup("x"); !ok || got != 1 {
		t.Fatal("clone lost original contents")
	}
}

// TestDictionaryAncestors: a value only Ancestor interned has a code but
// counts in neither Cardinality nor Values, in the dictionary or its
// clone, until Code or a loader interns it as a value of the data.
func TestDictionaryAncestors(t *testing.T) {
	d := NewDictionary()
	d.Code("Black")
	d.Code("White")
	nonwhite := d.Ancestor("Nonwhite")
	if got := d.Ancestor("Nonwhite"); got != nonwhite || d.Value(nonwhite) != "Nonwhite" {
		t.Fatalf("Ancestor(Nonwhite) = %d then %d (%q)", nonwhite, got, d.Value(got))
	}
	if got := d.Ancestor("White"); got != 2 {
		t.Fatalf("Ancestor(White) = %d, want White's code 2", got)
	}
	c := d.Clone()
	for name, dict := range map[string]*Dictionary{"dictionary": d, "clone": c} {
		if dict.Len() != 4 || dict.Cardinality() != 2 || !reflect.DeepEqual(dict.Values(), []string{"Black", "White"}) {
			t.Fatalf("%s: Len %d, Cardinality %d, Values %v; want 4, 2, [Black White]",
				name, dict.Len(), dict.Cardinality(), dict.Values())
		}
	}
	if got := d.Code("Nonwhite"); got != nonwhite {
		t.Fatalf("Code(Nonwhite) = %d, want %d", got, nonwhite)
	}
	if d.Cardinality() != 3 || c.Cardinality() != 2 {
		t.Fatalf("after Code: Cardinality %d (clone %d), want 3 (clone 2)", d.Cardinality(), c.Cardinality())
	}
	if got := c.codeBytes([]byte("Nonwhite")); got != nonwhite || c.Cardinality() != 3 {
		t.Fatalf("after codeBytes: code %d, Cardinality %d; want %d, 3", got, c.Cardinality(), nonwhite)
	}
	if got := d.Values(); !reflect.DeepEqual(got, []string{"Black", "White", "Nonwhite"}) {
		t.Fatalf("Values = %v", got)
	}
}

// Property: round-tripping any set of strings through a dictionary is
// lossless.
func TestDictionaryRoundTripProperty(t *testing.T) {
	f := func(values []string) bool {
		d := NewDictionary()
		codes := make([]uint32, len(values))
		for i, v := range values {
			codes[i] = d.Code(v)
		}
		for i, c := range codes {
			if d.Value(c) != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndRead(t *testing.T) {
	r := testRelation(t)
	if r.Len() != 5 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Values(0); !reflect.DeepEqual(got, []string{"M", "30", "Calgary", "Flu"}) {
		t.Fatalf("Values(0) = %v", got)
	}
	if r.Value(3, 2) != "Toronto" {
		t.Fatalf("Value(3,2) = %q", r.Value(3, 2))
	}
}

func TestAppendArityChecked(t *testing.T) {
	r := New(testSchema())
	if _, err := r.AppendValues("only", "three", "fields"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AppendCodes did not panic on arity mismatch")
		}
	}()
	r.AppendCodes([]uint32{1, 2})
}

func TestSuppressAndIsSuppressed(t *testing.T) {
	r := testRelation(t)
	r.Suppress(0, 2)
	if !r.IsSuppressed(0, 2) {
		t.Fatal("cell not suppressed")
	}
	if r.Value(0, 2) != Star {
		t.Fatalf("suppressed cell renders %q", r.Value(0, 2))
	}
	if r.IsSuppressed(0, 0) {
		t.Fatal("wrong cell suppressed")
	}
}

func TestCloneIndependence(t *testing.T) {
	r := testRelation(t)
	c := r.Clone()
	c.Suppress(0, 0)
	if r.IsSuppressed(0, 0) {
		t.Fatal("clone mutation leaked into original")
	}
	if c.Len() != r.Len() {
		t.Fatal("clone changed length")
	}
}

func TestDeriveSharesDictionaries(t *testing.T) {
	r := testRelation(t)
	d := r.Derive()
	d.AppendCodes(r.Row(0))
	if d.Value(0, 0) != r.Value(0, 0) {
		t.Fatal("derived relation decodes differently")
	}
	if d.Len() != 1 {
		t.Fatalf("derived Len = %d", d.Len())
	}
}

// TestDeriveSharesNumericCache pins the Derive fix: the numeric-parse cache
// is one pointer-shared object per relation family, so growth triggered
// through any member stays coherent with the shared dictionaries for all of
// them (copying the slice headers instead would let the relations diverge).
func TestDeriveSharesNumericCache(t *testing.T) {
	r := testRelation(t)
	d := r.Derive()
	if r.num != d.num {
		t.Fatal("Derive did not share the numeric cache by pointer")
	}

	// Warm the parent's cache, then intern new numeric values through the
	// derived relation only.
	if v, ok := r.NumericValue(1, r.Code(0, 1)); !ok || v != 30 {
		t.Fatalf("parent warm-up = %v, %t", v, ok)
	}
	d.MustAppendValues("F", "77", "Calgary", "Flu")
	code77 := d.Code(0, 1)

	// The parent must see the grown cache and parse the new code.
	if v, ok := r.NumericValue(1, code77); !ok || v != 77 {
		t.Fatalf("parent NumericValue(new code) = %v, %t", v, ok)
	}
	// And growth through the parent must be visible to the derivative.
	r2 := r.Derive()
	r2.MustAppendValues("M", "88", "Toronto", "Cold")
	code88 := r2.Code(0, 1)
	if v, ok := r.NumericValue(1, code88); !ok || v != 88 {
		t.Fatalf("parent NumericValue(88) = %v, %t", v, ok)
	}
	if v, ok := d.NumericValue(1, code88); !ok || v != 88 {
		t.Fatalf("sibling NumericValue(88) = %v, %t", v, ok)
	}
	if tab := d.num.tables[1].Load(); len(tab.vals) != d.Dict(1).Len() || len(tab.ok) != d.Dict(1).Len() {
		t.Fatalf("cache len %d/%d behind dictionary len %d",
			len(tab.vals), len(tab.ok), d.Dict(1).Len())
	}
}

// TestNumericValueConcurrent: readers sharing one relation family grow the
// numeric cache lazily from several goroutines; under -race this pins the
// cache's goroutine safety, and every reader sees the parsed values.
func TestNumericValueConcurrent(t *testing.T) {
	r := testRelation(t)
	d := r.Derive()
	d.MustAppendValues("F", "77", "Calgary", "Flu")
	code77 := d.Code(0, 1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < r.Len(); i++ {
				if _, ok := r.NumericValue(1, r.Code(i, 1)); !ok {
					t.Errorf("row %d: numeric value did not parse", i)
				}
			}
			if v, ok := d.NumericValue(1, code77); !ok || v != 77 {
				t.Errorf("NumericValue(77) = %v, %t", v, ok)
			}
		}()
	}
	wg.Wait()
}

// TestExtend appends ★ tuples after a Truncate, whose retained capacity
// still holds the old codes, and fills one through Row.
func TestExtend(t *testing.T) {
	r := testRelation(t)
	n := r.Len()
	d := r.Clone()
	d.Truncate()
	d.AppendCodes(r.Row(1))
	if first := d.Extend(2); first != 1 || d.Len() != 3 {
		t.Fatalf("Extend(2) = %d, Len = %d; want 1, 3", first, d.Len())
	}
	for a := range d.Row(2) {
		if !d.IsSuppressed(2, a) {
			t.Fatalf("extended tuple holds %v, want ★ everywhere", d.Values(2))
		}
	}
	copy(d.Row(1), r.Row(n-1))
	if !slices.Equal(d.Values(1), r.Values(n-1)) || !slices.Equal(d.Values(0), r.Values(1)) {
		t.Fatalf("filled tuples %v, %v", d.Values(0), d.Values(1))
	}
}

func TestNumericValue(t *testing.T) {
	r := testRelation(t)
	code := r.Code(0, 1) // "30"
	v, ok := r.NumericValue(1, code)
	if !ok || v != 30 {
		t.Fatalf("NumericValue = %v, %t", v, ok)
	}
	// Non-numeric value on a numeric attribute.
	bad := r.Dict(1).Code("not-a-number")
	if _, ok := r.NumericValue(1, bad); ok {
		t.Fatal("non-numeric value parsed")
	}
	// The suppression marker is not numeric.
	if _, ok := r.NumericValue(1, StarCode); ok {
		t.Fatal("star parsed as numeric")
	}
}

func TestNumericRange(t *testing.T) {
	r := testRelation(t)
	lo, hi, ok := r.NumericRange(1, nil)
	if !ok || lo != 30 || hi != 50 {
		t.Fatalf("NumericRange = [%v, %v], %t", lo, hi, ok)
	}
	lo, hi, ok = r.NumericRange(1, []int{0, 2})
	if !ok || lo != 30 || hi != 30 {
		t.Fatalf("NumericRange subset = [%v, %v], %t", lo, hi, ok)
	}
	if _, _, ok := r.NumericRange(0, nil); ok {
		t.Fatal("categorical attribute produced a numeric range")
	}
}

func TestCountAndMatch(t *testing.T) {
	r := testRelation(t)
	cal, _ := r.Dict(2).Lookup("Calgary")
	if got := r.Count(2, cal); got != 3 {
		t.Fatalf("Count(Calgary) = %d", got)
	}
	m, _ := r.Dict(0).Lookup("M")
	if got := r.CountMatch([]int{0, 2}, []uint32{m, cal}); got != 2 {
		t.Fatalf("CountMatch(M, Calgary) = %d", got)
	}
	rows := r.MatchingRows([]int{0, 2}, []uint32{m, cal})
	if !reflect.DeepEqual(rows, []int{0, 4}) {
		t.Fatalf("MatchingRows = %v", rows)
	}
}

func TestGroupBy(t *testing.T) {
	r := testRelation(t)
	groups := r.GroupBy([]int{0}, nil) // by GEN
	if len(groups) != 2 {
		t.Fatalf("%d groups", len(groups))
	}
	// Deterministic order: first group contains row 0.
	if groups[0][0] != 0 {
		t.Fatalf("group order not deterministic: %v", groups)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != r.Len() {
		t.Fatalf("groups cover %d of %d rows", total, r.Len())
	}
}

func TestQIGroups(t *testing.T) {
	r := testRelation(t)
	groups := r.QIGroups()
	// Rows 0 and 4 share (M, 30, Calgary); everything else is singleton.
	if len(groups) != 4 {
		t.Fatalf("%d QI-groups, want 4", len(groups))
	}
	found := false
	for _, g := range groups {
		if len(g) == 2 && g[0] == 0 && g[1] == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected group {0,4} missing: %v", groups)
	}
}

func TestDistinctCount(t *testing.T) {
	r := testRelation(t)
	if got := r.DistinctCount([]int{0}); got != 2 {
		t.Fatalf("DistinctCount(GEN) = %d", got)
	}
	if got := r.DistinctCount(r.Schema().QIIndexes()); got != 4 {
		t.Fatalf("DistinctCount(QI) = %d", got)
	}
}

func TestValueFrequencies(t *testing.T) {
	r := testRelation(t)
	freq := r.ValueFrequencies(3)
	flu, _ := r.Dict(3).Lookup("Flu")
	if freq[flu] != 3 {
		t.Fatalf("freq[Flu] = %d", freq[flu])
	}
}

func TestSameOn(t *testing.T) {
	r := testRelation(t)
	if !r.SameOn(0, 4, []int{0, 1, 2}) {
		t.Fatal("rows 0 and 4 should agree on QI")
	}
	if r.SameOn(0, 1, []int{0}) {
		t.Fatal("rows 0 and 1 differ on GEN")
	}
}

// Property: GroupBy partitions rows — every row appears in exactly one
// group, and all rows in a group agree on the grouping attributes.
func TestGroupByPartitionProperty(t *testing.T) {
	rng := testutil.Rng(t)
	for trial := 0; trial < 50; trial++ {
		r := New(testSchema())
		n := 1 + rng.IntN(60)
		for i := 0; i < n; i++ {
			r.MustAppendValues(
				[]string{"M", "F"}[rng.IntN(2)],
				strconv.Itoa(20+rng.IntN(3)*10),
				[]string{"Calgary", "Toronto", "Vancouver"}[rng.IntN(3)],
				"D"+strconv.Itoa(rng.IntN(4)),
			)
		}
		attrs := []int{0, 2}
		groups := r.GroupBy(attrs, nil)
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, row := range g {
				if seen[row] {
					t.Fatalf("row %d in two groups", row)
				}
				seen[row] = true
				if !r.SameOn(g[0], row, attrs) {
					t.Fatalf("group mixes values: rows %d and %d", g[0], row)
				}
			}
		}
		if len(seen) != n {
			t.Fatalf("groups cover %d of %d rows", len(seen), n)
		}
	}
}

// referenceGroupBy is the map-based group-by that the kernel
// replaced: it keys each row by its packed codes on attrs and appends rows
// to groups in input order, opening groups in order of first appearance.
func referenceGroupBy(r *Relation, attrs, rows []int) [][]int {
	byKey := make(map[string]int)
	var groups [][]int
	add := func(i int) {
		row := r.Row(i)
		buf := make([]byte, 0, len(attrs)*4)
		for _, a := range attrs {
			c := row[a]
			buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		g, ok := byKey[string(buf)]
		if !ok {
			g = len(groups)
			byKey[string(buf)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	if rows == nil {
		for i := 0; i < r.Len(); i++ {
			add(i)
		}
	} else {
		for _, i := range rows {
			add(i)
		}
	}
	return groups
}

// randomGroupingRelation returns a relation over four small-domain QI
// attributes and a sensitive one, with ★ cells and with unused codes
// interned before, between and after the codes the rows use.
func randomGroupingRelation(rng *rand.Rand) *Relation {
	r := New(MustSchema(
		Attribute{Name: "A", Role: QI},
		Attribute{Name: "B", Role: QI, Kind: Numeric},
		Attribute{Name: "C", Role: QI},
		Attribute{Name: "D", Role: QI},
		Attribute{Name: "S", Role: Sensitive},
	))
	intern := func() {
		for a := 0; a < 5; a++ {
			for u := rng.IntN(3) * rng.IntN(1000); u > 0; u-- {
				r.Dict(a).Code(fmt.Sprintf("unused-%d-%d", r.Dict(a).Len(), u))
			}
		}
	}
	intern()
	n := rng.IntN(120)
	vals := make([]string, 5)
	for i := 0; i < n; i++ {
		if i == n/2 {
			intern()
		}
		for a := range vals {
			vals[a] = strconv.Itoa(rng.IntN(1 + a))
			if a < 4 && rng.IntN(6) == 0 {
				vals[a] = Star
			}
		}
		r.MustAppendValues(vals...)
	}
	intern()
	return r
}

// TestGroupByMatchesReference checks the hash group-by against the
// map-based one: the same groups, in the same order, with the same rows in
// the same order, for every row selection (ascending and shuffled subsets,
// with ★ cells) and attribute list (the empty one included). The kernel's
// own table must hold each group's codes, weight and positions, and be the
// same at every worker count. Beyond the random trials it covers code
// vectors wider than 64 bits, tables that grow past their first size, and
// selections above 2·par.Grain rows split among 1, 2 and 4 workers.
func TestGroupByMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := testutil.Rng(t)
	check := func(what string, r *Relation, attrs, rows []int) {
		t.Helper()
		got, want := r.GroupBy(attrs, rows), referenceGroupBy(r, attrs, rows)
		if len(want) == 0 {
			if len(got) != 0 {
				t.Fatalf("%s attrs %v: GroupBy = %v, want no groups", what, attrs, got)
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s attrs %v rows %v:\n GroupBy = %v\nreference = %v", what, attrs, rows, got, want)
		}
		if rows == nil {
			if got := r.DistinctCount(attrs); got != len(want) {
				t.Fatalf("%s attrs %v: DistinctCount = %d, want %d", what, attrs, got, len(want))
			}
		}
		one := r.Distinct(attrs, rows, 1)
		if one.Len() != len(want) || one.Width != len(attrs) || len(one.Codes) != len(want)*len(attrs) {
			t.Fatalf("%s attrs %v: %d vectors of width %d in %d codes, want %d of width %d",
				what, attrs, one.Len(), one.Width, len(one.Codes), len(want), len(attrs))
		}
		for g, group := range want {
			if one.Weight(g) != len(group) {
				t.Fatalf("%s attrs %v: vector %d weighs %d, its group has %d rows", what, attrs, g, one.Weight(g), len(group))
			}
			for j, a := range attrs {
				if c := one.Codes[g*len(attrs)+j]; c != r.Code(group[0], a) {
					t.Fatalf("%s attrs %v: vector %d holds code %d on attribute %d, its rows %d", what, attrs, g, c, a, r.Code(group[0], a))
				}
			}
		}
		for _, w := range []int{2, 4, 0} {
			if split := r.Distinct(attrs, rows, w); !reflect.DeepEqual(split, one) {
				t.Fatalf("%s attrs %v: the table at parallelism %d differs from one worker's", what, attrs, w)
			}
		}
	}
	subsets := func(r *Relation) [][]int {
		ascending := []int{}
		for i := 0; i < r.Len(); i++ {
			if rng.IntN(2) == 0 {
				ascending = append(ascending, i)
			}
		}
		shuffled := slices.Clone(ascending)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return [][]int{nil, ascending, shuffled}
	}
	for trial := 0; trial < 100; trial++ {
		r := randomGroupingRelation(rng)
		for _, attrs := range [][]int{{}, {rng.IntN(5)}, r.Schema().QIIndexes()} {
			for _, rows := range subsets(r) {
				check(fmt.Sprintf("trial %d", trial), r, attrs, rows)
			}
		}
	}
	for _, c := range []struct {
		name             string
		attrs, domain, n int
		star             bool
	}{
		// 12 attributes of 2,048 codes: 132 bits a vector.
		{"wide", 12, 2048, 3000, false},
		// Almost every row distinct: the first table grows several times.
		{"growth", 3, 60, 5000, true},
		// Above 2·par.Grain rows: the pass splits among workers.
		{"split", 4, 12, 4*par.Grain + 321, true},
	} {
		attrs := make([]Attribute, c.attrs)
		for a := range attrs {
			attrs[a] = Attribute{Name: "A" + strconv.Itoa(a), Role: QI}
		}
		r := New(MustSchema(attrs...))
		for a := range attrs {
			for v := 0; v < c.domain; v++ {
				r.Dict(a).Code(strconv.Itoa(v))
			}
		}
		vals := make([]string, c.attrs)
		for i := 0; i < c.n; i++ {
			for a := range vals {
				vals[a] = strconv.Itoa(rng.IntN(c.domain))
				if c.star && rng.IntN(20) == 0 {
					vals[a] = Star
				}
			}
			r.MustAppendValues(vals...)
		}
		all := r.Schema().QIIndexes()
		if d := r.Distinct(all, nil, 1); c.name != "split" && d.Len() <= 2*firstVectors {
			t.Fatalf("%s: only %d distinct vectors, the table never grows", c.name, d.Len())
		}
		for _, rows := range subsets(r) {
			check(c.name, r, all, rows)
			check(c.name, r, all[:1], rows)
		}
	}
}

// TestGroupByGroupsAreCapped pins the shared backing array's contract:
// appending to one group never overwrites the next.
func TestGroupByGroupsAreCapped(t *testing.T) {
	r := testRelation(t)
	groups := r.GroupBy([]int{0}, nil)
	next := slices.Clone(groups[1])
	_ = append(groups[0], -1)
	if !slices.Equal(groups[1], next) {
		t.Fatalf("appending to group 0 overwrote group 1: %v, want %v", groups[1], next)
	}
}

// The tests below pin the storage contract of the flat row-major layout.

func TestRowAppendLeavesNextTupleUntouched(t *testing.T) {
	r := testRelation(t)
	next := slices.Clone(r.Row(1))
	row := r.Row(0)
	grown := append(row, 99)
	if !slices.Equal(r.Row(1), next) {
		t.Fatalf("appending to Row(0) overwrote tuple 1: %v, want %v", r.Row(1), next)
	}
	if len(grown) != len(row)+1 || grown[len(row)] != 99 {
		t.Fatalf("append result %v", grown)
	}
}

func TestRowSeesSetCodeAndSuppress(t *testing.T) {
	r := testRelation(t)
	row := r.Row(2)
	female := r.Code(1, 0)
	r.SetCode(2, 0, female)
	r.Suppress(2, 2)
	if row[0] != female || row[2] != StarCode {
		t.Fatalf("earlier Row slice missed the writes: %v", row)
	}
}

func TestSliceViewWritesThrough(t *testing.T) {
	r := testRelation(t)
	v := r.Slice(1, 3)
	if v.Len() != 2 || !slices.Equal(v.Row(0), r.Row(1)) || !slices.Equal(v.Row(1), r.Row(2)) {
		t.Fatalf("Slice(1, 3) = %v / %v", v.Values(0), v.Values(1))
	}
	if v.Dict(0) != r.Dict(0) {
		t.Fatal("view does not share dictionaries")
	}
	v.Suppress(1, 0)
	if !r.IsSuppressed(2, 0) {
		t.Fatal("Suppress on the view did not reach the parent")
	}
	r.SetCode(1, 2, StarCode)
	if !v.IsSuppressed(0, 2) {
		t.Fatal("SetCode on the parent is not visible through the view")
	}
	if got := v.Count(0, StarCode); got != 1 {
		t.Fatalf("view Count(★) = %d, want 1", got)
	}

	after := slices.Clone(r.Row(3))
	v.MustAppendValues("F", "60", "Calgary", "Flu")
	if !slices.Equal(r.Row(3), after) {
		t.Fatalf("appending to the view overwrote parent tuple 3: %v", r.Values(3))
	}
	if v.Len() != 3 || r.Len() != 5 || v.Value(2, 1) != "60" {
		t.Fatalf("after append: view %d rows, parent %d rows", v.Len(), r.Len())
	}
	// The append copied the view: it no longer writes through.
	v.Suppress(0, 0)
	if r.IsSuppressed(1, 0) {
		t.Fatal("view still aliases the parent after an append")
	}
}

func TestSliceBounds(t *testing.T) {
	r := testRelation(t)
	if e := r.Slice(5, 5); e.Len() != 0 || e.DistinctCount(r.Schema().QIIndexes()) != 0 {
		t.Fatalf("empty view has %d rows", e.Len())
	}
	for _, b := range [][2]int{{-1, 2}, {3, 2}, {0, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", b[0], b[1])
				}
			}()
			r.Slice(b[0], b[1])
		}()
	}
}

func TestGrowKeepsStorageInPlace(t *testing.T) {
	const k = 100
	r := New(testSchema())
	r.Grow(k)
	r.MustAppendValues("M", "30", "Calgary", "Flu")
	first := &r.Row(0)[0]
	for i := 1; i < k; i++ {
		r.MustAppendValues("F", strconv.Itoa(i), "Toronto", "Cold")
		if &r.Row(0)[0] != first {
			t.Fatalf("append %d after Grow(%d) moved the storage", i, k)
		}
	}
	if r.Len() != k {
		t.Fatalf("Len = %d, want %d", r.Len(), k)
	}
}

func TestZeroAttributeSchemaCountsRows(t *testing.T) {
	r := New(MustSchema())
	r.MustAppendValues()
	r.MustAppendValues()
	r.AppendCodes(nil)
	if r.Len() != 3 || len(r.Row(2)) != 0 {
		t.Fatalf("Len = %d, len(Row(2)) = %d", r.Len(), len(r.Row(2)))
	}
	if got := r.CountMatch(nil, nil); got != 3 {
		t.Fatalf("CountMatch = %d, want 3", got)
	}
	if got := r.QIGroups(); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("QIGroups = %v", got)
	}
	if r.Clone().Len() != 3 || r.Slice(1, 3).Len() != 2 {
		t.Fatal("Clone or Slice lost the row count")
	}
	if d := r.Derive(); d.Extend(2) != 0 || d.Len() != 2 {
		t.Fatalf("Extend: Len = %d, want 2", d.Len())
	}
}

func TestTruncateThenAppend(t *testing.T) {
	r := testRelation(t)
	r.Truncate()
	if r.Len() != 0 || r.CountMatch(nil, nil) != 0 {
		t.Fatalf("Truncate left %d rows", r.Len())
	}
	r.MustAppendValues("F", "40", "Toronto", "Cold")
	r.MustAppendValues("M", "50", "Calgary", "Flu")
	if r.Len() != 2 || !reflect.DeepEqual(r.Values(1), []string{"M", "50", "Calgary", "Flu"}) {
		t.Fatalf("after Truncate and appends: %d rows, %v", r.Len(), r.Values(1))
	}
	cold, _ := r.Dict(3).Lookup("Cold")
	if got := r.Count(3, cold); got != 1 {
		t.Fatalf("Count(Cold) = %d, want 1", got)
	}
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestOutOfRangeTuplePanics checks that an index past the last tuple panics
// even when spare capacity lies there, after Grow or Truncate.
func TestOutOfRangeTuplePanics(t *testing.T) {
	grown := testRelation(t)
	grown.Grow(4)
	truncated := testRelation(t)
	truncated.Truncate()
	zero := New(MustSchema())
	zero.MustAppendValues()
	for name, r := range map[string]*Relation{"grown": grown, "truncated": truncated, "zero-width": zero} {
		n := r.Len()
		mustPanic(t, name+" Row(Len())", func() { r.Row(n) })
		mustPanic(t, name+" Row(-1)", func() { r.Row(-1) })
		if r.Schema().Len() == 0 {
			continue
		}
		mustPanic(t, name+" Code(Len(), 0)", func() { r.Code(n, 0) })
		mustPanic(t, name+" SetCode(Len(), 0, ★)", func() { r.SetCode(n, 0, StarCode) })
		mustPanic(t, name+" Suppress(Len(), 0)", func() { r.Suppress(n, 0) })
		mustPanic(t, name+" IsSuppressed(Len(), 0)", func() { r.IsSuppressed(n, 0) })
	}
}

// TestColumnScanRejectsBadAttribute checks that the strided column scans
// panic on an attribute past the schema rather than read another column.
func TestColumnScanRejectsBadAttribute(t *testing.T) {
	r := testRelation(t)
	w := r.Schema().Len()
	mustPanic(t, "Count", func() { r.Count(w, 1) })
	mustPanic(t, "ValueFrequencies", func() { r.ValueFrequencies(w) })
	mustPanic(t, "NumericRange(nil rows)", func() { r.NumericRange(w, nil) })
	mustPanic(t, "NumericRange(rows)", func() { r.NumericRange(w, []int{0}) })
	mustPanic(t, "Count(-1)", func() { r.Count(-1, 1) })
}

// TestReadAllMatchesAppendValues checks ReadAll against a row-by-row build,
// codes and dictionaries included, on inputs that end inside the first
// block and on ones decoded in several blocks.
func TestReadAllMatchesAppendValues(t *testing.T) {
	for _, n := range []int{0, 1, 8191, 8192, 8193, 20000, 150000} {
		src := benchRelation(n)
		var buf bytes.Buffer
		if err := WriteAnnotatedCSV(&buf, src); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAnnotatedCSV(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := New(got.Schema())
		for i := 0; i < n; i++ {
			want.MustAppendValues(src.Values(i)...)
		}
		if got.Len() != n {
			t.Fatalf("n=%d: ReadAll read %d rows", n, got.Len())
		}
		for i := 0; i < n; i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) {
				t.Fatalf("n=%d: row %d codes %v, want %v", n, i, got.Row(i), want.Row(i))
			}
		}
		for a := 0; a < got.Schema().Len(); a++ {
			if !slices.Equal(got.Dict(a).Values(), want.Dict(a).Values()) {
				t.Fatalf("n=%d: dictionary %d differs", n, a)
			}
		}
	}
}
