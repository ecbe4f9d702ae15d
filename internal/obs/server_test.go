package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diva/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestMuxEndpoints drives the ops mux end to end: a finished run recorded
// through Collect (the engine's path into the Prometheus registry) must show
// up in /metrics, and a live heartbeating run must show up in
// /debug/diva/runs with a nonzero step count.
func TestMuxEndpoints(t *testing.T) {
	// Feed the process-wide Metrics registry exactly as core.Anonymize does.
	Collect(&trace.RunMetrics{
		Total:    3 * time.Millisecond,
		Steps:    42,
		Phases:   []trace.PhaseTiming{{Phase: trace.PhaseColor, Duration: 2 * time.Millisecond}},
		Accuracy: 0.9,
	}, "ok")

	runs := NewRunRegistry(4)
	live := runs.Begin()
	live.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: trace.PhaseColor})
	live.Trace(trace.Event{Kind: trace.KindProgress, Steps: 77, Depth: 5, Worker: -1})
	runs.Begin().Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok", Elapsed: time.Millisecond,
		Metrics: &trace.RunMetrics{Total: time.Millisecond}})

	srv := httptest.NewServer(NewMux(Metrics, runs))
	defer srv.Close()
	defer live.Trace(trace.Event{Kind: trace.KindRunEnd, Label: "ok"})

	code, body, hdr := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		`diva_runs_total{outcome="ok"}`,
		`diva_phase_duration_seconds_bucket{phase="color",le=`,
		"diva_search_steps_bucket",
		"diva_runs_live",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, hdr = get(t, srv, "/debug/diva/runs")
	if code != http.StatusOK {
		t.Fatalf("/debug/diva/runs status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/diva/runs Content-Type = %q", ct)
	}
	var runsDoc RunsDoc
	if err := json.Unmarshal([]byte(body), &runsDoc); err != nil {
		t.Fatalf("/debug/diva/runs is not JSON: %v\n%s", err, body)
	}
	if len(runsDoc.Live) != 1 || len(runsDoc.Completed) != 1 {
		t.Fatalf("runs doc: %d live, %d completed", len(runsDoc.Live), len(runsDoc.Completed))
	}
	if got := runsDoc.Live[0]; got.State != "running" || got.Steps != 77 || got.Heartbeats == 0 {
		t.Fatalf("live run = %+v", got)
	}

	code, body, _ = get(t, srv, "/debug/vars")
	if code != http.StatusOK || !json.Valid([]byte(body)) {
		t.Fatalf("/debug/vars status = %d, valid JSON = %v", code, json.Valid([]byte(body)))
	}

	if code, _, _ = get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/diva/runs") {
		t.Fatalf("index status = %d, body = %q", code, body)
	}
	if code, _, _ = get(t, srv, "/no-such-endpoint"); code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", code)
	}
}

// TestServeEphemeral binds ":0" and scrapes the bound address, the same
// handshake cmd/diva -listen relies on.
func TestServeEphemeral(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "diva_runs_total") {
		t.Fatalf("ephemeral /metrics: status %d, body %q", resp.StatusCode, body)
	}
}
