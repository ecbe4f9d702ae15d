package relation

import (
	"diva/internal/testutil"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
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

func TestAppendRowsFrom(t *testing.T) {
	r := testRelation(t)
	d := r.Derive()
	d.AppendRowsFrom(r, []int{4, 0})
	if d.Len() != 2 || d.Value(0, 3) != "Cold" || d.Value(1, 3) != "Flu" {
		t.Fatalf("AppendRowsFrom produced %v / %v", d.Values(0), d.Values(1))
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
