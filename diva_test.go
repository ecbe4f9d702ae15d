package diva_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"diva"
)

const patientsCSV = `GEN:qi,ETH:qi,AGE:qi:numeric,PRV:qi,CTY:qi,DIAG:sensitive
Female,Caucasian,80,AB,Calgary,Hypertension
Female,Caucasian,32,AB,Calgary,Tuberculosis
Male,Caucasian,59,AB,Calgary,Osteoarthritis
Male,Caucasian,46,MB,Winnipeg,Migraine
Male,African,32,MB,Winnipeg,Hypertension
Male,African,43,BC,Vancouver,Seizure
Male,Caucasian,35,BC,Vancouver,Hypertension
Female,Asian,58,BC,Vancouver,Seizure
Female,Asian,63,MB,Winnipeg,Influenza
Female,Asian,71,BC,Vancouver,Migraine
`

func loadPatients(t testing.TB) *diva.Relation {
	t.Helper()
	rel, err := diva.ReadAnnotatedCSV(strings.NewReader(patientsCSV))
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func paperConstraints() diva.Constraints {
	return diva.Constraints{
		diva.NewConstraint("ETH", "Asian", 2, 5),
		diva.NewConstraint("ETH", "African", 1, 3),
		diva.NewConstraint("CTY", "Vancouver", 2, 4),
	}
}

func TestPublicAnonymize(t *testing.T) {
	rel := loadPatients(t)
	sigma := paperConstraints()
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Strategy: diva.MaxFanOut, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !diva.IsKAnonymous(res.Output, 2) {
		t.Fatal("output not 2-anonymous")
	}
	ok, err := sigma.SatisfiedBy(res.Output)
	if err != nil || !ok {
		t.Fatalf("constraints unsatisfied (err=%v)", err)
	}
	if err := diva.Verify(rel, res, sigma, 2); err != nil {
		t.Fatal(err)
	}
	if acc := diva.Accuracy(res.Output); acc <= 0 || acc > 1 {
		t.Fatalf("accuracy = %v", acc)
	}
	if diva.Discernibility(res.Output, 2) < 2*res.Output.Len() {
		t.Fatal("discernibility below the k-anonymity floor")
	}
}

func TestPublicAnonymizeDeterministicSeed(t *testing.T) {
	sigma := paperConstraints()
	var outs [2]*bytes.Buffer
	for i := range outs {
		rel := loadPatients(t)
		res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Strategy: diva.Basic, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = &bytes.Buffer{}
		if err := diva.WriteCSV(outs[i], res.Output); err != nil {
			t.Fatal(err)
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Fatal("equal seeds produced different outputs")
	}
}

func TestPublicUnsatisfiable(t *testing.T) {
	rel := loadPatients(t)
	sigma := diva.Constraints{diva.NewConstraint("ETH", "Asian", 9, 12)}
	_, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Seed: 1})
	if !errors.Is(err, diva.ErrNoDiverseClustering) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicBaselines(t *testing.T) {
	rel := loadPatients(t)
	for _, name := range []diva.Baseline{diva.KMember, diva.OKA, diva.Mondrian} {
		res, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 3, Seed: 2, Baseline: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !diva.IsKAnonymous(res.Output, 3) {
			t.Fatalf("%s output not 3-anonymous", name)
		}
	}
	var ub *diva.UnknownBaselineError
	if _, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 3, Baseline: "magic"}); !errors.As(err, &ub) {
		t.Fatalf("want UnknownBaselineError, got %v", err)
	}
}

func TestPublicConstraintParsing(t *testing.T) {
	c, err := diva.ParseConstraint("ETH[Asian], 2, 5")
	if err != nil || c.String() != "ETH[Asian], 2, 5" {
		t.Fatalf("ParseConstraint: %v, %v", c, err)
	}
	set, err := diva.ParseConstraints(strings.NewReader("# σ1\nETH[Asian], 2, 5\nCTY[Vancouver], 2, 4\n"))
	if err != nil || len(set) != 2 {
		t.Fatalf("ParseConstraints: %v, %v", set, err)
	}
	multi := diva.NewMultiConstraint([]string{"ETH", "CTY"}, []string{"Asian", "Vancouver"}, 1, 2)
	if len(multi.Attrs) != 2 {
		t.Fatal("NewMultiConstraint lost attributes")
	}
}

func TestPublicConflictRate(t *testing.T) {
	rel := loadPatients(t)
	cf, err := diva.ConflictRate(rel, paperConstraints())
	if err != nil {
		t.Fatal(err)
	}
	if cf <= 0 || cf > 1 {
		t.Fatalf("cf = %v", cf)
	}
	disjoint := diva.Constraints{
		diva.NewConstraint("ETH", "Asian", 2, 5),
		diva.NewConstraint("ETH", "African", 1, 3),
	}
	cf, err = diva.ConflictRate(rel, disjoint)
	if err != nil || cf != 0 {
		t.Fatalf("disjoint cf = %v, %v", cf, err)
	}
}

func TestPublicSchemaBuilding(t *testing.T) {
	schema := diva.MustSchema(
		diva.Attribute{Name: "A", Role: diva.QI, Kind: diva.Categorical},
		diva.Attribute{Name: "N", Role: diva.Sensitive, Kind: diva.Numeric},
		diva.Attribute{Name: "I", Role: diva.Identifier},
	)
	rel := diva.NewRelation(schema)
	rel.MustAppendValues("x", "1", "id0")
	if rel.Len() != 1 {
		t.Fatal("append failed")
	}
	if _, err := diva.NewSchema(diva.Attribute{Name: "A"}, diva.Attribute{Name: "A"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestPublicLDiversity(t *testing.T) {
	rel := loadPatients(t)
	res, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 2, LDiversity: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !diva.IsLDiverse(res.Output, 2) {
		t.Fatal("output not 2-diverse")
	}
	if !diva.IsKAnonymous(res.Output, 2) {
		t.Fatal("output not 2-anonymous")
	}
	// OKA cannot enforce l-diversity and must be rejected up front with the
	// typed unsupported-combination error, not an unknown-name error.
	var ub *diva.UnsupportedBaselineError
	if _, err := diva.AnonymizeContext(context.Background(), rel, nil, diva.Options{K: 2, LDiversity: 2, Baseline: "oka", Seed: 4}); !errors.As(err, &ub) {
		t.Fatalf("OKA with l-diversity: want UnsupportedBaselineError, got %v", err)
	}
}

func TestPublicParallel(t *testing.T) {
	rel := loadPatients(t)
	sigma := paperConstraints()
	res, err := diva.AnonymizeContext(context.Background(), rel, sigma, diva.Options{K: 2, Parallel: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := diva.Verify(rel, res, sigma, 2); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSuppressionLoss(t *testing.T) {
	rel := loadPatients(t)
	if diva.SuppressionLoss(rel) != 0 {
		t.Fatal("fresh relation has loss")
	}
	res, err := diva.AnonymizeContext(context.Background(), rel, paperConstraints(), diva.Options{K: 2, Seed: 3, Strategy: diva.MinChoice})
	if err != nil {
		t.Fatal(err)
	}
	if diva.SuppressionLoss(res.Output) == 0 {
		t.Fatal("anonymization suppressed nothing on heterogeneous data")
	}
}
