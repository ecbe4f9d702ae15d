package core_test

import (
	"context"
	"testing"

	"diva/internal/cluster"
	"diva/internal/core"
	"diva/internal/history"
)

// TestEngineDepositsHistory runs the engine with HistoryDir set and checks
// the full ledger round trip: two identical runs share a comparison key and
// compare as noise; an infeasible run lands too (every outcome is ledgered)
// under a different config key.
func TestEngineDepositsHistory(t *testing.T) {
	dir := t.TempDir()
	run := func(k int) error {
		_, err := core.Anonymize(context.Background(), paperRelation(t), paperSigma(), core.Options{
			K:          k,
			Rng:        testRng(),
			HistoryDir: dir,
		})
		return err
	}
	if err := run(2); err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if err := run(2); err != nil {
		t.Fatalf("run 2: %v", err)
	}
	// k=9 on 10 rows with three constraints is infeasible; the failure must
	// be ledgered as well.
	if err := run(9); err == nil {
		t.Fatal("k=9 run unexpectedly succeeded")
	}

	got, err := history.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Skipped != 0 {
		t.Fatalf("ledger: %d records, %d skipped; want 3, 0", len(got.Records), got.Skipped)
	}
	r1, r2, r3 := got.Records[0], got.Records[1], got.Records[2]
	if r1.Outcome != "ok" || r2.Outcome != "ok" {
		t.Errorf("outcomes %q, %q; want ok, ok", r1.Outcome, r2.Outcome)
	}
	if r3.Outcome != "infeasible" || r3.Error == "" {
		t.Errorf("failed run: outcome %q error %q; want infeasible with error text", r3.Outcome, r3.Error)
	}
	if r1.Key() != r2.Key() {
		t.Errorf("identical runs got different keys %s vs %s", r1.Key(), r2.Key())
	}
	if r1.Key() == r3.Key() {
		t.Error("different k got the same comparison key")
	}
	if r1.Config.K != 2 || r1.Config.Baseline != "Mondrian" || r1.Config.Constraints != 3 || r1.Config.SigmaHash == "" {
		t.Errorf("config fingerprint incomplete: %+v", r1.Config)
	}
	if r1.Dataset.Rows != 10 || r1.Dataset.Columns != 6 || r1.Dataset.DictHash == "" {
		t.Errorf("dataset fingerprint incomplete: %+v", r1.Dataset)
	}
	if r1.Metrics == nil || r1.Metrics.Total <= 0 || len(r1.Metrics.Phases) == 0 {
		t.Errorf("metrics not ledgered: %+v", r1.Metrics)
	}
	if r1.Metrics.Accuracy <= 0 {
		t.Errorf("accuracy not ledgered: %v", r1.Metrics.Accuracy)
	}
	if r1.ID == "" || r1.ID == r2.ID {
		t.Errorf("record IDs not unique: %q, %q", r1.ID, r2.ID)
	}

	rep := history.Compare(got.Records[:1], got.Records[1:2], history.Thresholds{})
	if rep.Regressions != 0 {
		t.Errorf("identical paper-example runs compared with %d confirmed regressions", rep.Regressions)
	}
}

// TestHistoryOffByDefault checks that a run without HistoryDir (and without
// the env var) writes nothing.
func TestHistoryOffByDefault(t *testing.T) {
	t.Setenv(history.EnvDir, "")
	dir := t.TempDir()
	if _, err := core.Anonymize(context.Background(), paperRelation(t), paperSigma(), core.Options{
		K:   2,
		Rng: testRng(),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := history.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Fatalf("ledger written without HistoryDir: %d records", len(got.Records))
	}
}

// TestHistoryEnvFallback checks the DIVA_HISTORY_DIR fallback.
func TestHistoryEnvFallback(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(history.EnvDir, dir)
	if _, err := core.Anonymize(context.Background(), paperRelation(t), paperSigma(), core.Options{
		K:   2,
		Rng: testRng(),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := history.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 {
		t.Fatalf("env-configured ledger: %d records, want 1", len(got.Records))
	}
}

// TestHistoryKeysOnCandidateBudget checks that the candidate budget is part
// of the ledger key: runs that differ only in MaxCandidates are different
// experiments, while the default budget, spelled as 0 or as
// cluster.DefaultMaxCandidates, keeps the key of a run that never set it.
func TestHistoryKeysOnCandidateBudget(t *testing.T) {
	dir := t.TempDir()
	for _, mc := range []int{0, cluster.DefaultMaxCandidates, 4, 256} {
		if _, err := core.Anonymize(context.Background(), paperRelation(t), paperSigma(), core.Options{
			K:          2,
			Rng:        testRng(),
			Cluster:    cluster.Options{MaxCandidates: mc},
			HistoryDir: dir,
		}); err != nil {
			t.Fatalf("MaxCandidates %d: %v", mc, err)
		}
	}
	got, err := history.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 4 {
		t.Fatalf("ledger: %d records, want 4", len(got.Records))
	}
	r := got.Records
	if r[0].Key() != r[1].Key() || r[0].Config.MaxCandidates != 0 || r[1].Config.MaxCandidates != 0 {
		t.Errorf("default budget as 0 and as %d: keys %s, %s, configs %+v, %+v", cluster.DefaultMaxCandidates, r[0].Key(), r[1].Key(), r[0].Config, r[1].Config)
	}
	if r[2].Config.MaxCandidates != 4 || r[3].Config.MaxCandidates != 256 {
		t.Errorf("budgets not ledgered: %d, %d", r[2].Config.MaxCandidates, r[3].Config.MaxCandidates)
	}
	if r[0].Key() == r[2].Key() || r[0].Key() == r[3].Key() || r[2].Key() == r[3].Key() {
		t.Errorf("runs differing only in MaxCandidates share a key: %s, %s, %s", r[0].Key(), r[2].Key(), r[3].Key())
	}
}
