package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// tinyConfig keeps experiment smoke tests fast: minimum row counts, small
// defaults.
func tinyConfig() Config {
	return Config{Scale: 0.017, Seed: 5, K: 5, NumConstraints: 4}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Scale != 0.1 || cfg.K != 10 || cfg.NumConstraints != 8 || cfg.Seed == 0 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if got := cfg.scaled(60000); got != 6000 {
		t.Fatalf("scaled(60000) = %d", got)
	}
	// Floor at 1000 and cap at the unscaled size.
	if got := cfg.scaled(3000); got != 1000 {
		t.Fatalf("scaled(3000) = %d", got)
	}
	big := Config{Scale: 10}.WithDefaults()
	if got := big.scaled(500); got != 500 {
		t.Fatalf("upscaled(500) = %d", got)
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{
		"table4", "table5", "fig4a", "fig4b", "fig4c", "fig4d",
		"fig5a", "fig5b", "fig5c", "fig5d",
		"ablation-cap", "ablation-parallel",
	}
	if len(exps) != len(wantIDs) {
		t.Fatalf("%d experiments", len(exps))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("fig9z"); ok {
		t.Error("bogus id resolved")
	}
}

func TestTable5Static(t *testing.T) {
	table, err := Table5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	var buf bytes.Buffer
	table.Print(&buf)
	if !strings.Contains(buf.String(), "|Sigma|") {
		t.Fatalf("print output:\n%s", buf.String())
	}
	buf.Reset()
	table.CSV(&buf)
	if !strings.HasPrefix(buf.String(), "parameter,") {
		t.Fatalf("csv output:\n%s", buf.String())
	}
}

func TestFig4dSmoke(t *testing.T) {
	table, err := Fig4d(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	for _, row := range table.Rows {
		if len(row.Values) != 3 {
			t.Fatalf("row %s has %d values", row.X, len(row.Values))
		}
		for i, v := range row.Values {
			if math.IsNaN(v) {
				t.Errorf("row %s strategy %s failed", row.X, table.Columns[i])
			}
			if v < 0 || v > 1 {
				t.Errorf("accuracy %v out of range", v)
			}
		}
	}
}

func TestFig4cSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pantheon relation")
	}
	table, err := Fig4c(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(conflictSweep) {
		t.Fatalf("%d rows", len(table.Rows))
	}
	// Accuracy at cf=0 must not be below accuracy at cf=1 (the conflict
	// penalty is monotone in expectation; allow small noise).
	first := table.Rows[0].Values[0]
	last := table.Rows[len(table.Rows)-1].Values[0]
	if !(first >= last-0.02) {
		t.Errorf("accuracy grew with conflict: %.4f at cf=0, %.4f at cf=1", first, last)
	}
}

func TestSigmaSweepSmoke(t *testing.T) {
	// The sweep reaches |Σ| = 20, which needs 20 well-supported QI target
	// values; the 1000-row floor of tinyConfig is too small for that.
	cfg := tinyConfig()
	cfg.Scale = 0.06
	rt, acc, err := runSigmaSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) != len(sigmaSweep) || len(acc.Rows) != len(sigmaSweep) {
		t.Fatalf("row counts: %d, %d", len(rt.Rows), len(acc.Rows))
	}
	for _, row := range rt.Rows {
		for _, v := range row.Values {
			if v < 0 {
				t.Errorf("negative runtime %v", v)
			}
		}
	}
}

func TestKSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("five k values × five algorithms on credit")
	}
	acc, rt, err := runKSweep(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Rows) != len(kSweep) || len(rt.Rows) != len(kSweep) {
		t.Fatal("row counts wrong")
	}
	for _, row := range acc.Rows {
		if len(row.Values) != 5 {
			t.Fatalf("row %s has %d series", row.X, len(row.Values))
		}
	}
}

func TestTable4Profiles(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size datasets")
	}
	table, err := Table4(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("%d rows", len(table.Rows))
	}
	// Row counts must match Table 4 exactly; QI projections approximately
	// (they are verified tightly in the dataset package tests).
	wantRows := map[string]float64{"census": 299285, "credit": 1000, "pantheon": 11341, "pop-syn": 100000}
	for _, row := range table.Rows {
		if row.Values[0] != wantRows[row.X] {
			t.Errorf("%s |R| = %v, want %v", row.X, row.Values[0], wantRows[row.X])
		}
	}
}

func TestTablePrintFormatsNaN(t *testing.T) {
	table := &Table{
		ID: "x", Title: "t", XLabel: "x", YLabel: "accuracy",
		Columns: []string{"a"},
		Rows:    []Row{{X: "1", Values: []float64{math.NaN()}}},
	}
	var buf bytes.Buffer
	table.Print(&buf)
	if !strings.Contains(buf.String(), "-") {
		t.Fatalf("NaN not rendered as '-':\n%s", buf.String())
	}
}
