package cluster

import (
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/rowset"
)

// diffRelation draws a relation exercising every branch of the key-table
// enumerator: nq QI attributes with small domains and ★ cells in every QI
// column, and two sensitive columns for mixed targets and l-diversity. When
// derived is set, the relation is Derived from a much larger parent, so its
// dictionaries dwarf its rows and its codes are scattered across them.
func diffRelation(rng *rand.Rand, n, nq int, derived bool) *relation.Relation {
	var attrs []relation.Attribute
	for a := 0; a < nq; a++ {
		attrs = append(attrs, relation.Attribute{Name: "Q" + strconv.Itoa(a), Role: relation.QI})
	}
	attrs = append(attrs,
		relation.Attribute{Name: "S0", Role: relation.Sensitive},
		relation.Attribute{Name: "S1", Role: relation.Sensitive})
	rel := relation.New(relation.MustSchema(attrs...))
	values := make([]string, nq+2)
	if derived {
		for i := 0; i < 4000; i++ {
			for a := range values {
				values[a] = "v" + strconv.Itoa(rng.IntN(3000))
			}
			rel.MustAppendValues(values...)
		}
		rel = rel.Derive()
	}
	domain := make([]int, nq+2)
	for a := range domain {
		domain[a] = 1 + rng.IntN(5)
	}
	for i := 0; i < n; i++ {
		for a := range values {
			values[a] = "v" + strconv.Itoa(rng.IntN(domain[a]))
		}
		row := rel.MustAppendValues(values...)
		for a := 0; a < nq; a++ {
			if rng.IntN(20) == 0 {
				rel.Suppress(row, a)
			}
		}
	}
	return rel
}

// diffBound draws a bound over rel: one or two QI components, a QI and a
// sensitive component (a mixed target), a sensitive component alone, or an
// unseen value in either role, with bounds around the target's frequency.
func diffBound(t *testing.T, rng *rand.Rand, rel *relation.Relation, nq int) *constraint.Bound {
	t.Helper()
	value := func() string {
		if rng.IntN(8) == 0 {
			return "unseen"
		}
		return "v" + strconv.Itoa(rng.IntN(5))
	}
	qi := "Q" + strconv.Itoa(rng.IntN(nq))
	var c constraint.Constraint
	switch rng.IntN(4) {
	case 0:
		c = constraint.NewMulti([]string{qi}, []string{value()}, 0, 0)
	case 1:
		other := "Q" + strconv.Itoa(rng.IntN(nq))
		if other == qi {
			other = "S1"
		}
		c = constraint.NewMulti([]string{qi, other}, []string{value(), value()}, 0, 0)
	case 2:
		c = constraint.NewMulti([]string{qi, "S0"}, []string{value(), value()}, 0, 0)
	default:
		c = constraint.NewMulti([]string{"S" + strconv.Itoa(rng.IntN(2))}, []string{value()}, 0, 0)
	}
	b, err := c.Bound(rel)
	if err != nil {
		t.Fatal(err)
	}
	n := b.CountIn(rel)
	b.Lower = rng.IntN(n + 2)
	if rng.IntN(4) == 0 {
		b.Lower = 0
	}
	b.Upper = b.Lower + rng.IntN(n+3)
	return b
}

// usedSets returns the in-use row sets a Candidates call is checked under:
// none, an empty set, about a third of the pool plus unrelated rows, and the
// whole pool.
func usedSets(rng *rand.Rand, rel *relation.Relation, pool []int) []*rowset.Set {
	third, all := rowset.New(rel.Len()), rowset.FromSlice(rel.Len(), pool)
	for _, row := range pool {
		if rng.IntN(3) == 0 {
			third.Add(row)
		}
	}
	for row := 0; row < rel.Len(); row += 7 {
		third.Add(row)
	}
	return []*rowset.Set{nil, rowset.New(rel.Len()), third, all}
}

// rejectUniform rejects every cluster uniform on all QI attributes: the
// zero-cost windows the enumeration ranks first, so the winners come from
// deeper in the selection order.
type rejectUniform struct{}

func (rejectUniform) Name() string   { return "reject-uniform" }
func (rejectUniform) Monotone() bool { return false }
func (rejectUniform) Holds(rel *relation.Relation, group []int) bool {
	for _, a := range rel.Schema().QIIndexes() {
		for _, row := range group {
			if rel.Code(row, a) != rel.Code(group[0], a) {
				return true
			}
		}
	}
	return false
}

// TestEnumeratorMatchesReference differentially checks the key-table
// enumerator against the comparison-sort reference it replaced: identical
// candidate clusterings, in identical order and with identical row order
// inside each cluster, and identical target sizes, over random relations,
// bounds, in-use sets, k values, an l-diversity criterion and a criterion
// that rejects the cheapest windows. The windows form, materialized, lists
// the same clusterings. A budget of one candidate is checked on every
// bound, so bounds with a zero lower bound check that the empty clustering
// does not use up the budget.
func TestEnumeratorMatchesReference(t *testing.T) {
	leadAndWinner := 0
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0xe17))
		nq := 2 + trial%3 // odd and even QI widths
		n := rng.IntN(120)
		if trial%10 == 0 {
			n = 300 + rng.IntN(300)
		}
		rel := diffRelation(rng, n, nq, trial%4 == 3)
		for bi := 0; bi < 4; bi++ {
			b := diffBound(t, rng, rel, nq)
			for _, k := range []int{1, 2, 10} {
				for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}, rejectUniform{}} {
					opts := Options{K: k, Criterion: crit}
					if rng.IntN(3) == 0 {
						opts.MaxCandidates, opts.MaxWindowSizes = 1+rng.IntN(10), 1+rng.IntN(4)
					}
					for _, opts := range []Options{opts, {K: k, Criterion: crit, MaxCandidates: 1}} {
						got, want := NewEnumerator(rel, b, opts), newRefEnumerator(rel, b, opts)
						if got.TargetSize() != want.TargetSize() {
							t.Fatalf("trial %d %s: TargetSize %d, reference %d", trial, b, got.TargetSize(), want.TargetSize())
						}
						for ui, used := range usedSets(rng, rel, got.Pool()) {
							g, w := got.Candidates(nil, used), want.Candidates(nil, used)
							if !reflect.DeepEqual(g, w) {
								t.Fatalf("trial %d n=%d %s k=%d crit=%v max=%d used#%d: candidates diverged from the reference\ngot:  %v\nwant: %v",
									trial, rel.Len(), b, k, crit, opts.MaxCandidates, ui, g, w)
							}
							ws := got.Windows(nil, used)
							if ws.Len() != len(w) {
								t.Fatalf("trial %d %s max=%d used#%d: %d windows, reference %d candidates", trial, b, opts.MaxCandidates, ui, ws.Len(), len(w))
							}
							for i := range w {
								if s := ws.Clustering(i); !reflect.DeepEqual(s, w[i]) {
									t.Fatalf("trial %d %s max=%d used#%d: window %d is %v, reference %v", trial, b, opts.MaxCandidates, ui, i, s, w[i])
								}
							}
							if opts.MaxCandidates == 1 && b.Lower == 0 && len(w) == 2 {
								leadAndWinner++
							}
						}
					}
				}
			}
		}
	}
	if leadAndWinner == 0 {
		t.Fatal("no budget-one enumeration returned the empty clustering and a winner")
	}
}

// TestEnumeratorTargetSet pins the enumerator's pool and its match-flag
// target set — what BuildGraph and the search read instead of
// rescanning the relation — to the bound's own TargetQIRows and TargetSet,
// for random bounds including mixed, sensitive-only and unseen targets.
func TestEnumeratorTargetSet(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x7a5))
		nq := 2 + trial%3
		rel := diffRelation(rng, rng.IntN(200), nq, trial%4 == 3)
		for bi := 0; bi < 8; bi++ {
			b := diffBound(t, rng, rel, nq)
			e := NewEnumerator(rel, b, Options{K: 2})
			if got, want := e.TargetSet(), b.TargetSet(rel); !got.Equal(want) {
				t.Fatalf("trial %d %s: TargetSet %v, bound's %v", trial, b, got.Slice(), want.Slice())
			}
			if got, want := e.Pool(), b.TargetQIRows(rel); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: Pool %v, TargetQIRows %v", trial, b, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestCandidatesAllocateExactlyTheResult pins the enumeration's allocation
// contract: once a warm-up call has filled the pooled scratch, a Candidates
// call allocates only the three exactly sized arrays of its result (rows,
// cluster headers, clusterings), and every cluster is
// capped at its length. No pooled buffer is reachable from a result: a
// later call over other rows leaves it intact, and overwriting it leaves
// the next call equal to the reference. The cases cover pairwise
// compositions and an l-diversity criterion, whose check runs on a pooled
// row buffer; the count is pinned without the criterion, since a
// criterion's Holds allocates on its own.
func TestCandidatesAllocateExactlyTheResult(t *testing.T) {
	rel := dataset.CensusSized(2000).Generate(2000, 11)
	bound := mustBind(t, rel, constraint.New("SEX", "Male", 20, 400))
	used := rowset.New(rel.Len())
	for row := 0; row < rel.Len(); row += 3 {
		used.Add(row)
	}
	for _, crit := range []privacy.Criterion{nil, privacy.DistinctLDiversity{L: 2}} {
		opts := Options{K: 10, Criterion: crit}
		e, ref := NewEnumerator(rel, bound, opts), newRefEnumerator(rel, bound, opts)
		got, want := e.Candidates(nil, used), ref.Candidates(nil, used)
		pairs := 0
		for _, s := range got {
			if cap(s) != len(s) {
				t.Fatalf("crit=%v: clustering of %d clusters has capacity %d", crit, len(s), cap(s))
			}
			spanned := 0
			for _, c := range s {
				spanned += cap(c)
			}
			if spanned != s.Tuples() {
				t.Fatalf("crit=%v: clusters of %d tuples span capacity %d", crit, s.Tuples(), spanned)
			}
			if len(s) == 2 {
				pairs++
			}
		}
		if len(got) < 2 || pairs == 0 {
			t.Fatalf("crit=%v: %d candidates, %d pairwise; the case no longer exercises compositions", crit, len(got), pairs)
		}
		if crit == nil && !raceEnabled {
			if avg := testing.AllocsPerRun(20, func() { e.Candidates(nil, nil) }); avg > 3 {
				t.Errorf("crit=%v: Candidates allocates %.0f times per call, want at most 3", crit, avg)
			}
		}
		e.Candidates(nil, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("crit=%v: later calls over other rows changed an earlier result", crit)
		}
		for _, s := range got {
			for _, c := range s {
				for i := range c {
					c[i] = -1
				}
			}
		}
		if g, w := e.Candidates(nil, used), ref.Candidates(nil, used); !reflect.DeepEqual(g, w) {
			t.Fatalf("crit=%v: after overwriting a result, candidates diverged from the reference", crit)
		}
	}
}
