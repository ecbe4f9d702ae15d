package constraint_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/rowset"
	"diva/internal/testutil"
)

// componentSchema is the fixture schema of the decomposition property tests:
// three categorical QIs with small domains (so pools overlap often) and a
// sensitive attribute (so mixed targets exercise the QI-pool projection).
func componentSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.QI},
		relation.Attribute{Name: "C", Role: relation.QI},
		relation.Attribute{Name: "S", Role: relation.Sensitive},
	)
}

// randomComponentInstance builds a random relation over componentSchema and a
// random bound constraint set whose targets are drawn from rows that actually
// occur (plus an occasional unseen value, to cover empty pools).
func randomComponentInstance(t *testing.T, rng *rand.Rand) (*relation.Relation, []*constraint.Bound) {
	t.Helper()
	rel := relation.New(componentSchema())
	n := 30 + rng.IntN(50)
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			fmt.Sprintf("a%d", rng.IntN(4)),
			fmt.Sprintf("b%d", rng.IntN(3)),
			fmt.Sprintf("c%d", rng.IntN(5)),
			fmt.Sprintf("s%d", rng.IntN(6)),
		)
	}
	attrs := []string{"A", "B", "C", "S"}
	nc := 1 + rng.IntN(7)
	var sigma constraint.Set
	seen := map[string]bool{}
	for len(sigma) < nc {
		a := attrs[rng.IntN(len(attrs))]
		var v string
		if rng.IntN(10) == 0 {
			v = "never-occurs"
		} else {
			row := rng.IntN(n)
			ai, _ := rel.Schema().Index(a)
			v = rel.Value(row, ai)
		}
		c := constraint.New(a, v, 0, n)
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		sigma = append(sigma, c)
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return rel, bounds
}

// TestComponentsPartitionSigma asserts the decomposition's core contract over
// random instances: the components partition Σ (every constraint in exactly
// one component, indexes ascending, components ordered by smallest member),
// and pools — hence cluster footprints — are pairwise disjoint across
// components, with each component's target rows inside its pool.
func TestComponentsPartitionSigma(t *testing.T) {
	rng := testutil.Rng(t)
	for trial := 0; trial < 60; trial++ {
		rel, bounds := randomComponentInstance(t, rng)
		comps := constraint.Components(rel, bounds)
		seen := make(map[int]bool, len(bounds))
		targets := make([]*rowset.Set, len(comps))
		prevMin := -1
		for ci, comp := range comps {
			if len(comp.Indices) == 0 {
				t.Fatalf("trial %d: component %d is empty", trial, ci)
			}
			if len(comp.Indices) != len(comp.Bounds) {
				t.Fatalf("trial %d: component %d: %d indices but %d bounds", trial, ci, len(comp.Indices), len(comp.Bounds))
			}
			if comp.Indices[0] <= prevMin {
				t.Fatalf("trial %d: components out of order: min index %d after %d", trial, comp.Indices[0], prevMin)
			}
			prevMin = comp.Indices[0]
			last := -1
			for k, i := range comp.Indices {
				if i <= last {
					t.Fatalf("trial %d: component %d indices not ascending: %v", trial, ci, comp.Indices)
				}
				last = i
				if seen[i] {
					t.Fatalf("trial %d: constraint %d appears in two components", trial, i)
				}
				seen[i] = true
				if comp.Bounds[k] != bounds[i] {
					t.Fatalf("trial %d: component %d bound %d is not bounds[%d]", trial, ci, k, i)
				}
			}
			// Targets ⊆ Pool: occurrences can only come from pool rows.
			targets[ci] = rowset.New(rel.Len())
			for _, b := range comp.Bounds {
				targets[ci].Union(b.TargetSet(rel))
			}
			inter := targets[ci].Clone()
			inter.Intersect(comp.Pool)
			if !inter.Equal(targets[ci]) {
				t.Fatalf("trial %d: component %d has target rows outside its pool", trial, ci)
			}
		}
		if len(seen) != len(bounds) {
			t.Fatalf("trial %d: components cover %d of %d constraints", trial, len(seen), len(bounds))
		}
		for i := range comps {
			for j := i + 1; j < len(comps); j++ {
				if comps[i].Pool.Intersects(comps[j].Pool) {
					t.Fatalf("trial %d: components %d and %d share pool rows", trial, i, j)
				}
				if targets[i].Intersects(targets[j]) {
					t.Fatalf("trial %d: components %d and %d share target rows", trial, i, j)
				}
			}
		}
		// Cross-component bounds must have disjoint pools pairwise too (the
		// union-find edge rule, re-checked from first principles).
		for i := range bounds {
			for j := i + 1; j < len(bounds); j++ {
				ci, cj := componentOf(comps, i), componentOf(comps, j)
				if ci == cj {
					continue
				}
				pi := rowset.FromSlice(rel.Len(), bounds[i].TargetQIRows(rel))
				pj := rowset.FromSlice(rel.Len(), bounds[j].TargetQIRows(rel))
				if pi.Intersects(pj) {
					t.Fatalf("trial %d: constraints %d and %d share QI-pool rows but sit in components %d and %d", trial, i, j, ci, cj)
				}
			}
		}
	}
}

func componentOf(comps []constraint.Component, idx int) int {
	for ci, comp := range comps {
		for _, i := range comp.Indices {
			if i == idx {
				return ci
			}
		}
	}
	return -1
}

// TestComponentsSingleton: a single constraint always forms exactly one
// component carrying it, pool included — even when its target
// value never occurs (empty pool).
func TestComponentsSingleton(t *testing.T) {
	rng := testutil.Rng(t)
	for trial := 0; trial < 20; trial++ {
		rel, bounds := randomComponentInstance(t, rng)
		one := bounds[:1]
		comps := constraint.Components(rel, one)
		if len(comps) != 1 {
			t.Fatalf("trial %d: singleton Σ produced %d components", trial, len(comps))
		}
		if len(comps[0].Indices) != 1 || comps[0].Indices[0] != 0 || comps[0].Bounds[0] != one[0] {
			t.Fatalf("trial %d: singleton component malformed: %+v", trial, comps[0].Indices)
		}
		want := rowset.FromSlice(rel.Len(), one[0].TargetQIRows(rel))
		if !comps[0].Pool.Equal(want) {
			t.Fatalf("trial %d: singleton pool differs from TargetQIRows", trial)
		}
	}
}

// TestComponentsDeterministic: equal inputs yield structurally equal
// decompositions.
func TestComponentsDeterministic(t *testing.T) {
	rng := testutil.Rng(t)
	rel, bounds := randomComponentInstance(t, rng)
	a := constraint.Components(rel, bounds)
	b := constraint.Components(rel, bounds)
	if len(a) != len(b) {
		t.Fatalf("runs disagree on component count: %d vs %d", len(a), len(b))
	}
	for ci := range a {
		if len(a[ci].Indices) != len(b[ci].Indices) {
			t.Fatalf("component %d sizes differ", ci)
		}
		for k := range a[ci].Indices {
			if a[ci].Indices[k] != b[ci].Indices[k] {
				t.Fatalf("component %d member %d differs: %d vs %d", ci, k, a[ci].Indices[k], b[ci].Indices[k])
			}
		}
		if !a[ci].Pool.Equal(b[ci].Pool) {
			t.Fatalf("component %d sets differ between runs", ci)
		}
	}
}

// TestComponentsHandBuilt pins the decomposition on a hand-built instance:
// two constraints chained through a shared QI pool plus one disjoint
// constraint yield exactly two components.
func TestComponentsHandBuilt(t *testing.T) {
	rel := relation.New(componentSchema())
	// Rows 0-2 hold A=a0; rows 1-3 hold B=b0 (overlap at rows 1, 2);
	// rows 4-5 hold C=c9 and nothing else links them in.
	rel.MustAppendValues("a0", "bX", "cX", "s0")
	rel.MustAppendValues("a0", "b0", "cX", "s1")
	rel.MustAppendValues("a0", "b0", "cX", "s0")
	rel.MustAppendValues("aX", "b0", "cX", "s1")
	rel.MustAppendValues("aY", "bY", "c9", "s0")
	rel.MustAppendValues("aY", "bY", "c9", "s1")
	sigma := constraint.Set{
		constraint.New("A", "a0", 1, 3),
		constraint.New("B", "b0", 1, 3),
		constraint.New("C", "c9", 1, 2),
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	comps := constraint.Components(rel, bounds)
	if len(comps) != 2 {
		t.Fatalf("want 2 components, got %d", len(comps))
	}
	if got := comps[0].Indices; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("component 0 members = %v, want [0 1]", got)
	}
	if got := comps[1].Indices; len(got) != 1 || got[0] != 2 {
		t.Fatalf("component 1 members = %v, want [2]", got)
	}
	if want := rowset.FromSlice(rel.Len(), []int{0, 1, 2, 3}); !comps[0].Pool.Equal(want) {
		t.Fatalf("component 0 pool = %v, want rows 0-3", comps[0].Pool.Slice())
	}
	if want := rowset.FromSlice(rel.Len(), []int{4, 5}); !comps[1].Pool.Equal(want) {
		t.Fatalf("component 1 pool = %v, want rows 4-5", comps[1].Pool.Slice())
	}
}
