package anon

import (
	"context"
	"math/rand/v2"
	"strconv"
	"testing"

	"diva/internal/relation"
)

func testRng() *rand.Rand { return rand.New(rand.NewPCG(12, 21)) }

func demoSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	)
}

func randomRelation(rng *rand.Rand, n int) *relation.Relation {
	rel := relation.New(demoSchema())
	cities := []string{"Calgary", "Toronto", "Vancouver", "Winnipeg", "Halifax"}
	for i := 0; i < n; i++ {
		rel.MustAppendValues(
			[]string{"M", "F"}[rng.IntN(2)],
			strconv.Itoa(20+rng.IntN(60)),
			cities[rng.IntN(len(cities))],
			"D"+strconv.Itoa(rng.IntN(8)),
		)
	}
	return rel
}

func allRows(rel *relation.Relation) []int {
	rows := make([]int, rel.Len())
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// checkPartition verifies the Partitioner contract: clusters of ≥ k rows
// covering every input row exactly once.
func checkPartition(t *testing.T, name string, parts [][]int, rows []int, k int) {
	t.Helper()
	seen := make(map[int]bool, len(rows))
	for _, c := range parts {
		if len(c) < k {
			t.Fatalf("%s: cluster of %d rows, k=%d", name, len(c), k)
		}
		for _, r := range c {
			if seen[r] {
				t.Fatalf("%s: row %d in two clusters", name, r)
			}
			seen[r] = true
		}
	}
	if len(seen) != len(rows) {
		t.Fatalf("%s: clusters cover %d of %d rows", name, len(seen), len(rows))
	}
	for _, r := range rows {
		if !seen[r] {
			t.Fatalf("%s: row %d missing", name, r)
		}
	}
}

func partitioners(rng *rand.Rand) []Partitioner {
	return []Partitioner{
		&KMember{Rng: rng},
		&OKA{Rng: rng},
		&Mondrian{},
	}
}

func TestPartitionersContract(t *testing.T) {
	rng := testRng()
	for _, p := range partitioners(rng) {
		for _, n := range []int{1, 2, 7, 30, 101} {
			for _, k := range []int{1, 2, 3, 10} {
				if n < k {
					continue
				}
				rel := randomRelation(rng, n)
				rows := allRows(rel)
				parts, err := p.Partition(context.Background(), rel, rows, k)
				if err != nil {
					t.Fatalf("%s n=%d k=%d: %v", p.Name(), n, k, err)
				}
				checkPartition(t, p.Name(), parts, rows, k)
			}
		}
	}
}

func TestPartitionersRejectInfeasible(t *testing.T) {
	rng := testRng()
	rel := randomRelation(rng, 3)
	for _, p := range partitioners(rng) {
		if _, err := p.Partition(context.Background(), rel, allRows(rel), 5); err == nil {
			t.Errorf("%s: k > n accepted", p.Name())
		}
		if _, err := p.Partition(context.Background(), rel, allRows(rel), 0); err == nil {
			t.Errorf("%s: k = 0 accepted", p.Name())
		}
	}
}

func TestPartitionersEmptyInput(t *testing.T) {
	rng := testRng()
	rel := randomRelation(rng, 5)
	for _, p := range partitioners(rng) {
		parts, err := p.Partition(context.Background(), rel, nil, 3)
		if err != nil || len(parts) != 0 {
			t.Errorf("%s: empty input gave %v, %v", p.Name(), parts, err)
		}
	}
}

func TestPartitionSubsetOnly(t *testing.T) {
	rng := testRng()
	rel := randomRelation(rng, 40)
	subset := []int{3, 7, 11, 15, 19, 23, 27, 31}
	for _, p := range partitioners(rng) {
		parts, err := p.Partition(context.Background(), rel, subset, 3)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		checkPartition(t, p.Name(), parts, subset, 3)
	}
}

func TestNames(t *testing.T) {
	rng := testRng()
	want := map[string]bool{"k-member": true, "OKA": true, "Mondrian": true}
	for _, p := range []Partitioner{&KMember{Rng: rng}, &OKA{Rng: rng}, &Mondrian{}} {
		if !want[p.Name()] {
			t.Errorf("unexpected name %q", p.Name())
		}
	}
}

func TestKMemberGroupsSimilarTuples(t *testing.T) {
	// Two well-separated blocks of identical tuples must end up in pure
	// clusters under exact k-member.
	rel := relation.New(demoSchema())
	for i := 0; i < 6; i++ {
		rel.MustAppendValues("M", "30", "Calgary", "D1")
	}
	for i := 0; i < 6; i++ {
		rel.MustAppendValues("F", "70", "Halifax", "D2")
	}
	km := &KMember{Rng: testRng()}
	parts, err := km.Partition(context.Background(), rel, allRows(rel), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range parts {
		gen := rel.Value(c[0], 0)
		for _, r := range c {
			if rel.Value(r, 0) != gen {
				t.Fatalf("k-member mixed the two blocks: %v", parts)
			}
		}
	}
}

func TestMondrianSplitsWideAttribute(t *testing.T) {
	// One attribute cleanly separates two halves; Mondrian must cut it.
	rel := relation.New(demoSchema())
	for i := 0; i < 10; i++ {
		rel.MustAppendValues("M", strconv.Itoa(20+i), "Calgary", "D")
	}
	for i := 0; i < 10; i++ {
		rel.MustAppendValues("M", strconv.Itoa(70+i), "Calgary", "D")
	}
	m := &Mondrian{}
	parts, err := m.Partition(context.Background(), rel, allRows(rel), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("Mondrian did not split: %d partitions", len(parts))
	}
	for _, c := range parts {
		lo, hi, _ := rel.NumericRange(1, c)
		if hi-lo > 30 {
			t.Fatalf("partition spans both halves: [%v, %v]", lo, hi)
		}
	}
}

func TestMondrianUniformDataSinglePartition(t *testing.T) {
	rel := relation.New(demoSchema())
	for i := 0; i < 12; i++ {
		rel.MustAppendValues("M", "30", "Calgary", "D")
	}
	m := &Mondrian{}
	parts, err := m.Partition(context.Background(), rel, allRows(rel), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("uniform data split into %d partitions", len(parts))
	}
}

func TestOKADeterministicWithSeed(t *testing.T) {
	relA := randomRelation(rand.New(rand.NewPCG(5, 5)), 50)
	relB := randomRelation(rand.New(rand.NewPCG(5, 5)), 50)
	pa, err := (&OKA{Rng: rand.New(rand.NewPCG(9, 9))}).Partition(context.Background(), relA, allRows(relA), 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := (&OKA{Rng: rand.New(rand.NewPCG(9, 9))}).Partition(context.Background(), relB, allRows(relB), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != len(pb) {
		t.Fatalf("nondeterministic: %d vs %d clusters", len(pa), len(pb))
	}
	for i := range pa {
		if len(pa[i]) != len(pb[i]) {
			t.Fatalf("nondeterministic cluster sizes at %d", i)
		}
		for j := range pa[i] {
			if pa[i][j] != pb[i][j] {
				t.Fatalf("nondeterministic membership at %d/%d", i, j)
			}
		}
	}
}

func TestDistancer(t *testing.T) {
	rel := relation.New(demoSchema())
	rel.MustAppendValues("M", "20", "Calgary", "D1")
	rel.MustAppendValues("M", "40", "Calgary", "D1")
	rel.MustAppendValues("F", "60", "Toronto", "D2")
	d := newDistancer(rel, allRows(rel))
	if got := d.dist(0, 0); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
	// Rows 0,1: only AGE differs, by 20 of a 40 range → 0.5.
	if got := d.dist(0, 1); got != 0.5 {
		t.Fatalf("dist(0,1) = %v, want 0.5", got)
	}
	// Rows 0,2: GEN differs (1) + AGE (1.0) + CTY (1) = 3.
	if got := d.dist(0, 2); got != 3 {
		t.Fatalf("dist(0,2) = %v, want 3", got)
	}
	// Suppressed cells are maximally distant.
	rel.Suppress(1, 1)
	if got := d.dist(0, 1); got != 1 {
		t.Fatalf("dist with star = %v, want 1", got)
	}
}

func TestClusterSummaryCosts(t *testing.T) {
	rel := relation.New(demoSchema())
	rel.MustAppendValues("M", "30", "Calgary", "D1")
	rel.MustAppendValues("M", "30", "Calgary", "D2")
	rel.MustAppendValues("F", "30", "Toronto", "D3")
	qi := rel.Schema().QIIndexes()
	cs := newClusterSummary(rel, qi, 0)
	// Identical row costs nothing.
	if got := cs.addCost(rel, 1); got != 0 {
		t.Fatalf("identical addCost = %d", got)
	}
	cs.add(rel, 1)
	// Row 2 breaks GEN and CTY: each costs size+1 = 3 cells → 6.
	if got := cs.addCost(rel, 2); got != 6 {
		t.Fatalf("breaking addCost = %d, want 6", got)
	}
	cs.add(rel, 2)
	// Another identical-to-0 row now pays 1 per broken attribute (GEN,
	// CTY already non-uniform) → 2.
	rel.MustAppendValues("M", "30", "Calgary", "D4")
	if got := cs.addCost(rel, 3); got != 2 {
		t.Fatalf("post-break addCost = %d, want 2", got)
	}
}

// Property: across random inputs, all partitioners produce legal
// partitions whose suppression is k-anonymous by construction (every
// cluster ≥ k rows).
func TestPartitionersProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.IntN(120)
		k := 1 + rng.IntN(6)
		if n < k {
			n = k
		}
		rel := randomRelation(rng, n)
		rows := allRows(rel)
		for _, p := range partitioners(rng) {
			parts, err := p.Partition(context.Background(), rel, rows, k)
			if err != nil {
				t.Fatalf("%s n=%d k=%d: %v", p.Name(), n, k, err)
			}
			checkPartition(t, p.Name(), parts, rows, k)
		}
	}
}
