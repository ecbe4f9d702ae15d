package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diva"
)

// TestMain lets tests re-exec this binary as the real diva CLI: the child
// process sets DIVA_RUN_MAIN=1 and runs main() with whatever arguments the
// test passed, so the signal-handling path is exercised exactly as a user
// would hit it — no go-build round trip needed.
func TestMain(m *testing.M) {
	if os.Getenv("DIVA_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestInterruptEndsHoldCleanly is the satellite-2 acceptance: `diva -listen
// -hold` parked in its hold window must exit with status 0 on SIGINT — the
// signal ends the hold early, the ops server shuts down gracefully, and the
// canonical run record was emitted before the wait began.
func TestInterruptEndsHoldCleanly(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-in", "../../testdata/patients.csv",
		"-constraints", "../../testdata/patients.sigma",
		"-k", "2", "-seed", "42",
		"-listen", "127.0.0.1:0", "-hold", "1h",
		"-log-format", "json")
	cmd.Env = append(os.Environ(), "DIVA_RUN_MAIN=1")
	cmd.Stdout = nil // anonymized CSV, discarded
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Scan the structured log until both the ops server announcement and the
	// canonical run record have appeared: the process is then inside -hold.
	type line struct {
		Msg  string `json:"msg"`
		Addr string `json:"addr"`
	}
	var addr string
	sawRun := false
	sc := bufio.NewScanner(stderr)
	deadline := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	for sc.Scan() && (addr == "" || !sawRun) {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("stderr line is not JSON with -log-format json: %q", sc.Text())
		}
		switch l.Msg {
		case "ops server listening":
			addr = l.Addr
		case "diva run":
			sawRun = true
		}
	}
	deadline.Stop()
	if addr == "" || !sawRun {
		t.Fatalf("child never reached the hold window (addr=%q, canonical record=%v)", addr, sawRun)
	}
	go func() {
		for sc.Scan() {
		}
	}()

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGINT: %v (want status 0)", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("process did not exit within 15s of SIGINT")
	}
}

// TestBaselineOnlyRunIsARun: a run without -constraints goes through the one
// driver like any other run, so -history-dir ledgers it and -hierarchy
// renders its groups by generalization, which -verify then accepts.
func TestBaselineOnlyRunIsARun(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	prv := filepath.Join(dir, "prv.txt")
	if err := os.WriteFile(prv, []byte("AB -> West\nBC -> West\nMB -> Prairie\nWest -> *\nPrairie -> *\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	hist := filepath.Join(dir, "hist")
	cmd := exec.Command(exe,
		"-in", "../../testdata/patients.csv",
		"-k", "2", "-seed", "42", "-verify",
		"-history-dir", hist, "-hierarchy", "PRV="+prv)
	cmd.Env = append(os.Environ(), "DIVA_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("baseline-only run: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(string(out), ",West,") {
		t.Errorf("no PRV cell generalized to West in the output:\n%s", out)
	}
	recs, err := diva.LoadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Outcome != "ok" || recs[0].Config.Constraints != 0 {
		t.Fatalf("ledger holds %d records (%+v), want one ok record of a run with no constraints", len(recs), recs)
	}
}

// TestInfeasibleRunNamesThePackageOnce: an engine error already begins with
// "diva: ", so the CLI must not prefix it again, and the wrapped sentinel
// must not repeat it either.
func TestInfeasibleRunNamesThePackageOnce(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe,
		"-in", "../../testdata/patients.csv",
		"-constraints", "../../testdata/patients.sigma",
		"-k", "50")
	cmd.Env = append(os.Environ(), "DIVA_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("a 50-anonymization of 10 rows succeeded")
	}
	msg := stderr.String()
	if !strings.HasPrefix(msg, "diva: ") || strings.Count(msg, "diva: ") != 1 {
		t.Fatalf("stderr must name the package once, as its prefix:\n%s", msg)
	}
	if !strings.Contains(msg, "no diverse k-anonymous relation exists") {
		t.Fatalf("stderr lacks the infeasibility text:\n%s", msg)
	}
}
