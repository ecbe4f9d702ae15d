package history

import (
	"hash"
	"hash/fnv"
	"os"
	"testing"

	"diva/internal/constraint"
	"diva/internal/relation"
)

// TestFingerprintStability pins the ledger's hash function: the ledger
// stores these hashes on disk and compares them across processes, so the
// exact values are part of the format. FNV-1a of the empty input is the
// offset basis and "a" is a standard test vector; the rest were computed by
// the hand-rolled FNV-1a accumulator the ledger used before hash/fnv.
func TestFingerprintStability(t *testing.T) {
	if got := newFingerprint().String(); got != "cbf29ce484222325" {
		t.Errorf("empty fingerprint = %s, want cbf29ce484222325", got)
	}
	f := newFingerprint()
	f.h.Write([]byte("a"))
	if got := f.String(); got != "af63dc4c8601ec8c" {
		t.Errorf("fnv1a(a) = %s, want af63dc4c8601ec8c", got)
	}
	for _, c := range []struct {
		name string
		fp   *fingerprint
		want string
	}{
		{`addString("a")`, newFingerprint().addString("a"), "089be207b544f1e4"},
		{"addInt(-1)", newFingerprint().addInt(-1), "8cf51a8bfca3883d"},
		{"addInt(1)", newFingerprint().addInt(1), "89cd31291d2aefa4"},
		{`addString("ab").addString("c")`, newFingerprint().addString("ab").addString("c"), "ad22872f536e4705"},
		{`addString("a").addString("bc")`, newFingerprint().addString("a").addString("bc"), "401801fc84f3ca79"},
	} {
		if got := c.fp.String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestFingerprintBoundaries(t *testing.T) {
	if newFingerprint().addString("ab").addString("c").String() == newFingerprint().addString("a").addString("bc").String() {
		t.Error("addString must separate value boundaries")
	}
	raw := newFingerprint()
	raw.h.Write([]byte("x"))
	if newFingerprint().addString("x").String() == raw.String() {
		t.Error("addString must differ from the raw bytes (terminator round)")
	}
	if newFingerprint().addInt(1).addInt(2).String() == newFingerprint().addInt(2).addInt(1).String() {
		t.Error("fingerprint must be order-sensitive")
	}
	if newFingerprint().addInt(-1).String() == newFingerprint().addInt(1).String() {
		t.Error("addInt must distinguish sign")
	}
}

// fixedSum is a hash whose Sum64 is fixed, for checking the rendering.
type fixedSum struct {
	hash.Hash64
	v uint64
}

func (f fixedSum) Sum64() uint64 { return f.v }

func TestFingerprintStringPadding(t *testing.T) {
	f := &fingerprint{h: fixedSum{fnv.New64a(), 0xab}}
	if got := f.String(); got != "00000000000000ab" {
		t.Errorf("String() = %q, want 16 zero-padded digits", got)
	}
}

// TestLedgerIdentityPinned pins every identity hash the ledger keys on to
// the values earlier releases wrote, so existing ledgers keep their keys and
// cross-run comparison still joins old records with new ones.
func TestLedgerIdentityPinned(t *testing.T) {
	c := Config{
		K: 10, Criterion: "distinct 2-diversity", Strategy: "MinChoice", Baseline: "mondrian",
		Shards: 4, Parallelism: 2, Parallel: 3, MaxSteps: 100000,
		Constraints: 3, SigmaHash: "0123456789abcdef", Bench: "table4",
	}
	if got := c.Hash(); got != "9ff0ddd9a295c481" {
		t.Errorf("Config.Hash = %s, want 9ff0ddd9a295c481", got)
	}
	c.Nogoods = true
	if got := c.Hash(); got != "6698c256263b903c" {
		t.Errorf("Config.Hash with Nogoods = %s, want 6698c256263b903c", got)
	}
	if got := (Config{}).Hash(); got != "f208c7351280ec8f" {
		t.Errorf("zero Config.Hash = %s, want f208c7351280ec8f", got)
	}
	if got := (Config{MaxCandidates: 4}).Hash(); got != "e4432536ff3f7482" {
		t.Errorf("Config.Hash with MaxCandidates = %s, want e4432536ff3f7482", got)
	}
	if got := (Dataset{Rows: 10, Columns: 6, DictHash: "fedcba9876543210"}).Hash(); got != "33f44c5f5018c29f" {
		t.Errorf("Dataset.Hash = %s, want 33f44c5f5018c29f", got)
	}
	if got := (Dataset{Rows: -1, Columns: -1 << 40}).Hash(); got != "350afeeb1ea2256a" {
		t.Errorf("Dataset.Hash of negative ints = %s, want 350afeeb1ea2256a", got)
	}

	f, err := os.Open("../../testdata/patients.sigma")
	if err != nil {
		t.Fatal(err)
	}
	sigma, err := constraint.ParseSet(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := FingerprintConstraints(sigma); got != "b46e3a8a7a7da9f7" {
		t.Errorf("FingerprintConstraints(patients.sigma) = %s, want b46e3a8a7a7da9f7", got)
	}

	f, err = os.Open("../../testdata/patients.csv")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := relation.ReadAnnotatedCSV(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := Dataset{Rows: 10, Columns: 6, DictHash: "eedb67d16c94f4ae"}
	if got := FingerprintRelation(rel); got != want {
		t.Errorf("FingerprintRelation(patients.csv) = %+v, want %+v", got, want)
	}
}
