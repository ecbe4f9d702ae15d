package verify

import (
	"strings"
	"testing"

	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/privacy"
	"diva/internal/relation"
)

// demoRel builds a relation over (GEN qi, CTY qi, DIAG sensitive) from rows.
func demoRel(rows ...[3]string) *relation.Relation {
	rel := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.QI},
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	for _, r := range rows {
		rel.MustAppendValues(r[0], r[1], r[2])
	}
	return rel
}

func kinds(rep *Report) []Kind {
	out := make([]Kind, len(rep.Violations))
	for i, v := range rep.Violations {
		out[i] = v.Kind
	}
	return out
}

func wantOnly(t *testing.T, rep *Report, kind Kind) {
	t.Helper()
	if len(rep.Violations) != 1 || rep.Violations[0].Kind != kind {
		t.Fatalf("violations = %v, want exactly one of kind %q", kinds(rep), kind)
	}
}

func TestValidateOutputClean(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"M", "Vancouver", "cold"},
		[3]string{"F", "Toronto", "flu"},
		[3]string{"F", "Toronto", "asthma"},
	)
	sigma := constraint.Set{constraint.New("CTY", "Vancouver", 1, 2)}
	rep := ValidateOutput(orig, orig.Clone(), sigma, 2, Options{
		Criterion:  privacy.DistinctLDiversity{L: 2},
		CheckStars: true,
		Stars:      0,
	})
	if err := rep.Err(); err != nil {
		t.Fatalf("clean output rejected: %v", err)
	}
	if !rep.OK() || rep.Stars != 0 || rep.Groups != 2 {
		t.Fatalf("report = %+v, want OK with 0 stars and 2 groups", rep)
	}
}

func TestValidateOutputNil(t *testing.T) {
	orig := demoRel([3]string{"M", "Vancouver", "flu"})
	wantOnly(t, ValidateOutput(orig, nil, nil, 1, Options{}), KindCardinality)
}

func TestValidateOutputCardinality(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"M", "Vancouver", "cold"},
	)
	out := demoRel([3]string{"M", "Vancouver", "flu"})
	rep := ValidateOutput(orig, out, nil, 1, Options{})
	wantOnly(t, rep, KindCardinality)
}

func TestValidateOutputSchemaChange(t *testing.T) {
	orig := demoRel([3]string{"M", "Vancouver", "flu"})
	out := relation.New(relation.MustSchema(
		relation.Attribute{Name: "GEN", Role: relation.QI},
		relation.Attribute{Name: "CTY", Role: relation.Sensitive}, // role flipped
		relation.Attribute{Name: "DIAG", Role: relation.Sensitive},
	))
	out.MustAppendValues("M", "Vancouver", "flu")
	wantOnly(t, ValidateOutput(orig, out, nil, 1, Options{}), KindCardinality)
}

func TestValidateOutputContainment(t *testing.T) {
	orig := demoRel([3]string{"M", "Vancouver", "flu"})
	// A QI cell changed to another value, not to ★: not a suppression of R.
	out := demoRel([3]string{"M", "Toronto", "flu"})
	wantOnly(t, ValidateOutput(orig, out, nil, 1, Options{}), KindContainment)

	if rep := ValidateOutput(orig, out, nil, 1, Options{SkipContainment: true}); !rep.OK() {
		t.Fatalf("SkipContainment still reports %v", kinds(rep))
	}
}

func TestValidateOutputSensitiveNotSuppressible(t *testing.T) {
	orig := demoRel([3]string{"M", "Vancouver", "flu"})
	out := demoRel([3]string{"M", "Vancouver", relation.Star})
	wantOnly(t, ValidateOutput(orig, out, nil, 1, Options{}), KindContainment)
}

func TestValidateOutputKAnonymity(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"F", "Toronto", "cold"},
	)
	rep := ValidateOutput(orig, orig.Clone(), nil, 2, Options{})
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %v, want one per singleton QI-group", kinds(rep))
	}
	for _, v := range rep.Violations {
		if v.Kind != KindKAnonymity {
			t.Fatalf("violation %v, want kind %q", v, KindKAnonymity)
		}
	}
}

func TestValidateOutputConstraintBounds(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"M", "Vancouver", "cold"},
	)
	for _, tc := range []struct {
		name  string
		sigma constraint.Set
		want  string
	}{
		{"below", constraint.Set{constraint.New("CTY", "Vancouver", 3, 4)}, "below lower bound"},
		{"above", constraint.Set{constraint.New("CTY", "Vancouver", 0, 1)}, "above upper bound"},
		{"invalid", constraint.Set{constraint.New("CTY", "Vancouver", 3, 1)}, "invalid constraint set"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := ValidateOutput(orig, orig.Clone(), tc.sigma, 1, Options{})
			wantOnly(t, rep, KindConstraint)
			if !strings.Contains(rep.Violations[0].Detail, tc.want) {
				t.Fatalf("detail %q, want substring %q", rep.Violations[0].Detail, tc.want)
			}
		})
	}
}

func TestValidateOutputAbsentTargetCountsZero(t *testing.T) {
	orig := demoRel([3]string{"M", "Vancouver", "flu"})
	// A target value the output's dictionaries have never seen must bind with
	// occurrence count 0, not fail.
	sigma := constraint.Set{constraint.New("CTY", "Calgary", 0, 2)}
	if rep := ValidateOutput(orig, orig.Clone(), sigma, 1, Options{}); !rep.OK() {
		t.Fatalf("absent target rejected: %v", kinds(rep))
	}
	sigma = constraint.Set{constraint.New("CTY", "Calgary", 1, 2)}
	wantOnly(t, ValidateOutput(orig, orig.Clone(), sigma, 1, Options{}), KindConstraint)
}

func TestValidateOutputCriterion(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"M", "Vancouver", "flu"},
	)
	rep := ValidateOutput(orig, orig.Clone(), nil, 2, Options{Criterion: privacy.DistinctLDiversity{L: 2}})
	wantOnly(t, rep, KindCriterion)
}

func TestValidateOutputAccounting(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"F", "Vancouver", "cold"},
	)
	out := orig.Clone()
	out.Suppress(0, 0)
	out.Suppress(1, 0)
	rep := ValidateOutput(orig, out, nil, 2, Options{CheckStars: true, Stars: 1})
	wantOnly(t, rep, KindAccounting)
	if rep.Stars != 2 {
		t.Fatalf("measured stars = %d, want 2", rep.Stars)
	}
	if rep := ValidateOutput(orig, out, nil, 2, Options{CheckStars: true, Stars: 2}); !rep.OK() {
		t.Fatalf("correct accounting rejected: %v", kinds(rep))
	}
}

func TestValidateOutputCollectsAllViolations(t *testing.T) {
	orig := demoRel(
		[3]string{"M", "Vancouver", "flu"},
		[3]string{"F", "Toronto", "cold"},
	)
	sigma := constraint.Set{constraint.New("CTY", "Vancouver", 0, 0)}
	rep := ValidateOutput(orig, orig.Clone(), sigma, 2, Options{
		Criterion:  privacy.DistinctLDiversity{L: 2},
		CheckStars: true,
		Stars:      9,
	})
	// Two undersized groups + constraint + two criterion failures + accounting.
	want := map[Kind]int{KindKAnonymity: 2, KindConstraint: 1, KindCriterion: 2, KindAccounting: 1}
	got := map[Kind]int{}
	for _, v := range rep.Violations {
		got[v.Kind]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("violations = %v, want %v", kinds(rep), want)
		}
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "6 invariant violation(s)") {
		t.Fatalf("Err() = %v, want a 6-violation summary", err)
	}
}

// TestDenseCensusSigmaShape checks the dense-conflict Σ's shape: the
// REGION core's bounds, the padders' cluster-forcing bounds and the padder
// budget, and that a relation without the census attributes yields none.
func TestDenseCensusSigmaShape(t *testing.T) {
	const k = 10
	var sigma constraint.Set
	for seed := uint64(1); sigma == nil; seed++ {
		if seed > 50 {
			t.Fatal("no census sample of 400 rows has a REGION core")
		}
		sigma, _ = DenseCensusSigma(dataset.CensusSized(400).Generate(400, seed), k, 2)
	}
	if len(sigma) < 3 || len(sigma) > 5 {
		t.Fatalf("|Σ| = %d, want the 3-constraint core plus at most 2 padders", len(sigma))
	}
	if c := sigma[0]; c.Lower != 0 || c.Upper != 2*k-2 {
		t.Errorf("REGION cap %v, want bounds [0, %d]", c, 2*k-2)
	}
	for _, c := range sigma[1:] {
		if c.Lower != k || c.Upper < k {
			t.Errorf("%v does not force a cluster of ≥ %d", c, k)
		}
	}
	if _, ok := DenseCensusSigma(demoRel([3]string{"M", "Vancouver", "flu"}), k, 2); ok {
		t.Error("a relation without REGION yielded a dense Σ")
	}
}
