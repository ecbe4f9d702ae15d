package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/history"
	"diva/internal/trace"
)

func seedLedger(t *testing.T, totals ...time.Duration) *history.Ledger {
	t.Helper()
	l, err := history.Shared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, total := range totals {
		rec := &history.Record{
			RunID:   uint64(i + 1),
			Outcome: "ok",
			Config:  history.Config{K: 2, Baseline: "Mondrian"},
			Dataset: history.Dataset{Rows: 10, Columns: 3},
			Metrics: &trace.RunMetrics{
				Total:    total,
				Accuracy: 0.9,
				Phases:   []trace.PhaseTiming{{Phase: trace.PhaseColor, Duration: total / 2}},
			},
		}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestHistoryEndpoint(t *testing.T) {
	seedLedger(t, 10*time.Millisecond, 12*time.Millisecond)
	mux := NewMux(NewRegistry(), NewRunRegistry(4))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/diva/history")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	var got struct {
		Dir     string            `json:"dir"`
		Records []*history.Record `json:"records"`
	}
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Dir == "" {
		t.Fatalf("history JSON: dir %q, %d records", got.Dir, len(got.Records))
	}
	if got.Records[1].Metrics == nil || got.Records[1].Metrics.Total != 12*time.Millisecond {
		t.Fatalf("record metrics not served: %+v", got.Records[1])
	}

	text, err := srv.Client().Get(srv.URL + "/debug/diva/history?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "OUTCOME") || !strings.Contains(string(body), "ok") {
		t.Fatalf("text table missing columns:\n%s", body)
	}

	res2, err := srv.Client().Get(srv.URL + "/debug/diva/history?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var got2 struct {
		Records []*history.Record `json:"records"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&got2); err != nil {
		t.Fatal(err)
	}
	if len(got2.Records) != 1 || got2.Records[0].RunID != 2 {
		t.Fatalf("?n=1 must keep the latest record: %+v", got2.Records)
	}
}

func TestHistoryCompareEndpoint(t *testing.T) {
	seedLedger(t, 100*time.Millisecond, 104*time.Millisecond)
	mux := NewMux(NewRegistry(), NewRunRegistry(4))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/diva/history/compare")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("status %d: %s", res.StatusCode, body)
	}
	var rep history.Report
	if err := json.NewDecoder(res.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Regressions != 0 {
		t.Fatalf("4%% jitter confirmed as regression: %+v", rep.Deltas)
	}
	if len(rep.Deltas) == 0 || rep.Deltas[0].Phase != "total" {
		t.Fatalf("compare deltas: %+v", rep.Deltas)
	}

	text, err := srv.Client().Get(srv.URL + "/debug/diva/history/compare?a=%231&b=%232&format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer text.Body.Close()
	body, _ := io.ReadAll(text.Body)
	if !strings.Contains(string(body), "confirmed regressions: 0") {
		t.Fatalf("compare text:\n%s", body)
	}

	bad, err := srv.Client().Get(srv.URL + "/debug/diva/history/compare?a=nope")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("bad selector status %d, want 400", bad.StatusCode)
	}
}

func TestHistoryMetricsExposed(t *testing.T) {
	l := seedLedger(t, time.Millisecond)
	rr := httptest.NewRecorder()
	Metrics.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	out := rr.Body.String()
	for _, want := range []string{
		"diva_history_ledger_bytes",
		"diva_history_appends_total",
		"diva_history_append_errors_total",
		"diva_runs_evicted_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if l.Size() <= 0 {
		t.Error("active ledger size not positive")
	}
}
