package history

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"diva/internal/trace"
)

func testRecord(run uint64) *Record {
	return &Record{
		RunID:   run,
		Outcome: "ok",
		Config:  Config{K: 2, Strategy: "basic", Baseline: "mondrian", Constraints: 1},
		Dataset: Dataset{Rows: 10, Columns: 3, DictHash: "abc"},
		Metrics: &trace.RunMetrics{
			RunID: run,
			Total: 100 * time.Millisecond,
			Phases: []trace.PhaseTiming{
				{Phase: trace.PhaseColor, Duration: 40 * time.Millisecond},
				{Phase: trace.PhaseBaseline, Duration: 60 * time.Millisecond},
			},
		},
	}
}

func TestLedgerAppendLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Skipped != 0 {
		t.Fatalf("Load: %d records, %d skipped; want 3, 0", len(got.Records), got.Skipped)
	}
	seen := map[string]bool{}
	for i, r := range got.Records {
		if r.RunID != uint64(i+1) {
			t.Errorf("record %d: RunID %d, want append order preserved", i, r.RunID)
		}
		if r.ID == "" || seen[r.ID] {
			t.Errorf("record %d: ID %q not unique", i, r.ID)
		}
		seen[r.ID] = true
		if r.Time.IsZero() {
			t.Errorf("record %d: zero time", i)
		}
		if r.Metrics == nil || r.Metrics.PhaseDuration(trace.PhaseColor) != 40*time.Millisecond {
			t.Errorf("record %d: metrics not round-tripped: %+v", i, r.Metrics)
		}
		if r.Key() != got.Records[0].Key() {
			t.Errorf("record %d: key %q differs for identical config", i, r.Key())
		}
	}
}

func TestLedgerCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn, unterminated JSON fragment at
	// the tail, plus a stray non-JSON line in the middle.
	path := filepath.Join(dir, "ledger.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n{\"id\":\"torn-rec\",\"time\":\"2026-"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 {
		t.Fatalf("Load after corruption: %d records, want the 2 intact ones", len(got.Records))
	}
	if got.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2 (stray line + torn tail)", got.Skipped)
	}

	// The ledger must stay appendable after the corruption: Open heals the
	// unterminated fragment with a newline, so the next append lands on its
	// own line instead of fusing with the torn tail.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(testRecord(3)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Records) != 3 || got2.Skipped != 2 {
		t.Errorf("after re-append: %d records / %d skipped; want 3 / 2 (tail healed, prefix intact)",
			len(got2.Records), got2.Skipped)
	}
}

func TestLedgerRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, WithMaxBytes(600))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for i := uint64(1); i <= 8; i++ {
		if err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		n++
	}
	l.Close()
	if _, err := os.Stat(filepath.Join(dir, "ledger.jsonl.1")); err != nil {
		t.Fatalf("rotation never happened: %v", err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One rotation keeps one previous generation; older generations are
	// dropped, so we must see a contiguous suffix of the appends ending at
	// the last one.
	if len(got.Records) == 0 || len(got.Records) > n {
		t.Fatalf("Load after rotation: %d records", len(got.Records))
	}
	last := got.Records[len(got.Records)-1]
	if last.RunID != 8 {
		t.Errorf("last record RunID = %d, want 8", last.RunID)
	}
	for i := 1; i < len(got.Records); i++ {
		if got.Records[i].RunID != got.Records[i-1].RunID+1 {
			t.Errorf("records not contiguous: %d then %d", got.Records[i-1].RunID, got.Records[i].RunID)
		}
	}
}

func TestLedgerConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := testRecord(uint64(w*per + i))
				rec.Error = fmt.Sprintf("writer-%d", w)
				if err := l.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := l.Appends(); got != writers*per {
		t.Errorf("Appends() = %d, want %d", got, writers*per)
	}
	l.Close()
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != writers*per || got.Skipped != 0 {
		t.Fatalf("Load: %d records, %d skipped; want %d, 0", len(got.Records), got.Skipped, writers*per)
	}
	ids := map[string]bool{}
	for _, r := range got.Records {
		if ids[r.ID] {
			t.Fatalf("duplicate ID %q under concurrency", r.ID)
		}
		ids[r.ID] = true
	}
}

func TestSharedAndActive(t *testing.T) {
	dir := t.TempDir()
	l1, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("Shared must return one Ledger per directory")
	}
	if Active() != l1 {
		t.Error("Active must be the last Shared ledger")
	}
}

func TestLoadMissingDir(t *testing.T) {
	got, err := Load(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatalf("missing dir must load empty, got %v", err)
	}
	if len(got.Records) != 0 || got.Skipped != 0 {
		t.Errorf("missing dir: %+v", got)
	}
}

func TestFindSelectors(t *testing.T) {
	recs := []*Record{
		{ID: "aaaa-1"}, {ID: "bbbb-2"}, {ID: "cccc-3"},
	}
	cases := []struct {
		sel  string
		want string
		err  bool
	}{
		{"latest", "cccc-3", false},
		{"", "cccc-3", false},
		{"prev", "bbbb-2", false},
		{"#1", "aaaa-1", false},
		{"#-1", "cccc-3", false},
		{"bbbb-2", "bbbb-2", false},
		{"cccc", "cccc-3", false},
		{"#9", "", true},
		{"nope", "", true},
	}
	for _, c := range cases {
		got, err := Find(recs, c.sel)
		if c.err {
			if err == nil {
				t.Errorf("Find(%q): want error, got %v", c.sel, got.ID)
			}
			continue
		}
		if err != nil {
			t.Errorf("Find(%q): %v", c.sel, err)
			continue
		}
		if got.ID != c.want {
			t.Errorf("Find(%q) = %s, want %s", c.sel, got.ID, c.want)
		}
	}
}

func TestFilterAndLatestPerKey(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	mk := func(i int, k int, outcome string) *Record {
		r := testRecord(uint64(i))
		r.ID = fmt.Sprintf("r-%d", i)
		r.Time = base.Add(time.Duration(i) * time.Hour)
		r.Config.K = k
		r.Outcome = outcome
		return r
	}
	recs := []*Record{mk(1, 2, "ok"), mk(2, 2, "infeasible"), mk(3, 3, "ok"), mk(4, 2, "ok")}

	if got := Select(recs, Filter{Outcome: "ok"}); len(got) != 3 {
		t.Errorf("outcome filter: %d, want 3", len(got))
	}
	if got := Select(recs, Filter{ConfigHash: recs[0].Config.Hash()}); len(got) != 3 {
		t.Errorf("config filter: %d, want 3 (k=2 records)", len(got))
	}
	if got := Select(recs, Filter{Since: base.Add(90 * time.Minute)}); len(got) != 3 {
		t.Errorf("since filter: %d, want 3", len(got))
	}
	if got := Select(recs, Filter{Until: base.Add(90 * time.Minute)}); len(got) != 1 {
		t.Errorf("until filter: %d, want 1", len(got))
	}

	byKey := LatestPerKey(recs, 2)
	if len(byKey) != 2 {
		t.Fatalf("LatestPerKey: %d keys, want 2", len(byKey))
	}
	k2 := byKey[recs[0].Key()]
	if len(k2) != 2 || k2[0].ID != "r-2" || k2[1].ID != "r-4" {
		t.Errorf("latest-2 for k=2 key: %v", ids(k2))
	}
	if ks := Keys(byKey); len(ks) != 2 || ks[0] > ks[1] {
		t.Errorf("Keys not sorted: %v", ks)
	}
}

func ids(recs []*Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// TestLoadKeepsRecordWithUnknownEventKind: a record whose flight tail holds
// an event kind this build does not know (one an older build emitted)
// loads without its tail instead of being skipped.
func TestLoadKeepsRecordWithUnknownEventKind(t *testing.T) {
	dir := t.TempDir()
	line := `{"id":"old-1","run_id":7,"outcome":"infeasible","config":{"k":2},"dataset":{"rows":10},` +
		`"events":[{"seq":1,"at_ns":1,"kind":"retired-kind","node":0,"n":0,"depth":0,"worker":0}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "ledger.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 1 || got.Skipped != 0 {
		t.Fatalf("Load: %d records, %d skipped; want 1, 0", len(got.Records), got.Skipped)
	}
	if rec := got.Records[0]; rec.ID != "old-1" || rec.RunID != 7 || rec.Outcome != "infeasible" || rec.Config.K != 2 || rec.Events != nil {
		t.Fatalf("record = %+v, want old-1 (run 7, infeasible, k 2) without events", rec)
	}
}
