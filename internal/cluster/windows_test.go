package cluster

import (
	"reflect"
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// preservedRef counts the occurrences of b's target that suppression keeps
// in cluster c, read from the relation: zero unless every row holds b's
// values on its QI components, else the rows holding the complete target.
// It is the coloring search's own count, which Windows.Preserved replaces
// for enumerated candidates.
func preservedRef(rel *relation.Relation, b *constraint.Bound, c []int) int {
	for k, a := range b.Attrs {
		if rel.Schema().Attr(a).Role != relation.QI {
			continue
		}
		for _, row := range c {
			if rel.Code(row, a) != b.Codes[k] {
				return 0
			}
		}
	}
	n := 0
	for _, row := range c {
		if b.Matches(rel.Row(row)) {
			n++
		}
	}
	return n
}

// censusSigma binds a Σ over rel covering every kind of target the
// windows read differently: single QI attributes, two QI attributes, a
// mixed QI and sensitive target, and a sensitive attribute alone. Bounds
// run from a tenth of each target's frequency (at least 10) to all of it.
func censusSigma(t *testing.T, rel *relation.Relation) []*constraint.Bound {
	t.Helper()
	set := constraint.Set{
		constraint.New("RACE", "White", 0, 0),
		constraint.New("SEX", "Female", 0, 0),
		constraint.New("EDUCATION", "Bachelors", 0, 0),
		constraint.NewMulti([]string{"SEX", "RACE"}, []string{"Male", "White"}, 0, 0),
		constraint.NewMulti([]string{"SEX", "EDUCATION"}, []string{"Female", "HighSchool"}, 0, 0),
		constraint.NewMulti([]string{"RACE", "INCOME"}, []string{"White", "50000+"}, 0, 0),
		constraint.New("MARITAL", "Divorced", 0, 0),
	}
	var bounds []*constraint.Bound
	for _, c := range set {
		b := mustBind(t, rel, c)
		n := b.CountIn(rel)
		b.Lower, b.Upper = max(n/10, 10), n
		bounds = append(bounds, b)
	}
	return bounds
}

// TestWindowsMatchMaterialized checks the windows form against the
// materializing one on census samples, for every bound of a mixed Σ, with
// and without rows in use and with and without distinct 2-diversity:
// Windows lists the clusterings Candidates returns, in the same order;
// every window's rows miss the rows in use; and Preserved equals the
// relation-read count over the materialized rows for every bound of Σ.
func TestWindowsMatchMaterialized(t *testing.T) {
	for _, n := range []int{600, 3000} {
		rel := dataset.CensusSized(n).Generate(n, 11)
		bounds := censusSigma(t, rel)
		thirds := rowset.New(rel.Len())
		for row := 0; row < rel.Len(); row += 3 {
			thirds.Add(row)
		}
		for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}} {
			es := NewEnumerators(rel, bounds, Options{K: 10, Criterion: crit})
			// A used set as the search builds one: another bound's first
			// enumerated winner.
			claimed := rowset.New(rel.Len())
			for _, c := range es[0].Windows(nil, nil).Clustering(es[0].lead()) {
				claimed.AddSlice(c)
			}
			nonzero := 0
			for bi, e := range es {
				for ui, used := range []*rowset.Set{nil, thirds, claimed} {
					w, want := e.Windows(nil, used), e.Candidates(nil, used)
					if w.Len() != len(want) {
						t.Fatalf("n=%d %s crit=%v used#%d: %d windows, %d candidates", n, bounds[bi], crit, ui, w.Len(), len(want))
					}
					for i := 0; i < w.Len(); i++ {
						s := w.Clustering(i)
						if !reflect.DeepEqual(s, want[i]) {
							t.Fatalf("n=%d %s crit=%v used#%d: window %d is %v, candidate %v", n, bounds[bi], crit, ui, i, s, want[i])
						}
						for _, c := range s {
							for _, row := range c {
								if used != nil && used.Contains(row) {
									t.Fatalf("n=%d %s used#%d: window %d holds row %d, which is in use", n, bounds[bi], ui, i, row)
								}
							}
						}
						for _, b := range bounds {
							ref := 0
							for _, c := range s {
								ref += preservedRef(rel, b, c)
							}
							if got := w.Preserved(i, b); got != ref {
								t.Fatalf("n=%d %s crit=%v used#%d window %d: Preserved(%s) = %d, counted %d", n, bounds[bi], crit, ui, i, b, got, ref)
							}
							if ref > 0 {
								nonzero++
							}
						}
					}
				}
			}
			if nonzero == 0 {
				t.Fatalf("n=%d crit=%v: every window preserves nothing; the case checks no count", n, crit)
			}
		}
	}
}

// TestWindowsAllocateOnce pins the windows form's allocation contract:
// after a warm-up call, an enumeration makes one allocation — its windows
// with the snapshot of the available positions they span — whether or not
// rows are in use.
func TestWindowsAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
	rel := dataset.CensusSized(2000).Generate(2000, 11)
	e := NewEnumerator(rel, mustBind(t, rel, constraint.New("SEX", "Male", 20, 400)), Options{K: 10})
	used := rowset.New(rel.Len())
	for row := 0; row < rel.Len(); row += 3 {
		used.Add(row)
	}
	for _, u := range []*rowset.Set{nil, used} {
		if e.Windows(nil, u).Len() < 2 {
			t.Fatal("the case no longer enumerates candidates")
		}
		if avg := testing.AllocsPerRun(20, func() { e.Windows(nil, u) }); avg != 1 {
			t.Errorf("used=%v: Windows allocates %.0f times per call, want 1", u != nil, avg)
		}
	}
}

// TestWindowsPreservedBeyondMaskWidth covers QI attributes past the 32
// that a window's uniform mask records, which Preserved checks by scanning
// the key table: on a 34-attribute schema, bounds on the last attribute
// count as the relation-read reference does. Rejecting uniform clusters
// makes the winners windows that the last attribute splits.
func TestWindowsPreservedBeyondMaskWidth(t *testing.T) {
	var attrs []relation.Attribute
	for a := 0; a < 34; a++ {
		attrs = append(attrs, relation.Attribute{Name: "Q" + strconv.Itoa(a), Role: relation.QI})
	}
	rel := relation.New(relation.MustSchema(attrs...))
	values := make([]string, 34)
	for i := 0; i < 60; i++ {
		for a := range values {
			values[a] = "v" + strconv.Itoa(i/20)
		}
		values[33] = "w" + strconv.Itoa(i%2)
		rel.MustAppendValues(values...)
	}
	bounds := []*constraint.Bound{
		mustBind(t, rel, constraint.New("Q0", "v1", 2, 20)),
		mustBind(t, rel, constraint.New("Q33", "w0", 2, 30)),
		mustBind(t, rel, constraint.NewMulti([]string{"Q0", "Q33"}, []string{"v0", "w1"}, 2, 10)),
	}
	nonzero, es := 0, NewEnumerators(rel, bounds, Options{K: 2})
	for _, e := range append(es, NewEnumerators(rel, bounds, Options{K: 2, Criterion: rejectUniform{}})...) {
		w := e.Windows(nil, nil)
		for i := 0; i < w.Len(); i++ {
			s := w.Clustering(i)
			for _, b := range bounds {
				ref := 0
				for _, c := range s {
					ref += preservedRef(rel, b, c)
				}
				if got := w.Preserved(i, b); got != ref {
					t.Fatalf("%s window %d %v: Preserved(%s) = %d, counted %d", e.b, i, s, b, got, ref)
				}
				if ref > 0 && b.Attrs[len(b.Attrs)-1] == 33 {
					nonzero++
				}
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no window preserves a target on attribute 33; the case checks no scan")
	}
}
