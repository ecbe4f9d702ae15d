// Command divatop is a terminal follower for live DIVA runs: it polls an ops
// server's run registry (/debug/diva/runs) and renders one line per run —
// current phase, coloring depth, search steps, backtracks, heartbeats,
// state — updating in place like top(1). Every column is a
// field of the server's obs.RunInfo; divatop keeps no run state of its own.
//
// Usage:
//
//	divatop [-addr 127.0.0.1:9090] [-run 3] [-interval 500ms] [-once]
//
// -run follows a single run (default: all runs the server knows). -once
// prints a single snapshot as soon as a followed run has completed and
// exits — the mode CI smokes use. Without -once the follower redraws every
// -interval until the server goes away or the process is interrupted; the
// display rewrites in place on a terminal and appends snapshots otherwise.
// A failed first poll is fatal; a failed poll after a successful one ends
// the follower (with -once, after printing the last snapshot).
//
// The registry retains recently completed runs, so divatop started after a
// short run still shows its final state and outcome.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"diva/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "ops server address (host:port)")
		run      = flag.Uint64("run", 0, "follow only this run ID (0 = all runs)")
		interval = flag.Duration("interval", 500*time.Millisecond, "poll and render interval")
		once     = flag.Bool("once", false, "print one snapshot once a followed run has completed (or the server goes away) and exit")
	)
	flag.Parse()
	if err := follow(os.Stdout, *addr, *run, *interval, *once, isTerminal(os.Stdout)); err != nil {
		fmt.Fprintln(os.Stderr, "divatop:", err)
		os.Exit(1)
	}
}

// follow polls the registry at addr every interval and writes the table of
// the runs id selects (0 = all) to w: with once, a single snapshot as soon
// as one of them has completed; otherwise every poll, rewinding over the
// previous table when inPlace. A failed first poll is returned; a later one
// ends the follower.
func follow(w io.Writer, addr string, id uint64, interval time.Duration, once, inPlace bool) error {
	url := "http://" + addr + "/debug/diva/runs"
	table := "" // the last rendered snapshot; empty until a poll succeeds
	for {
		runs, err := poll(url, id)
		if err != nil {
			if table == "" {
				return err
			}
			fmt.Fprintln(os.Stderr, "divatop: poll:", err)
			if once {
				fmt.Fprint(w, table)
			}
			return nil
		}
		next := render(runs)
		if once {
			if slices.ContainsFunc(runs, func(r obs.RunInfo) bool { return r.State != obs.StateRunning }) {
				fmt.Fprint(w, next)
				return nil
			}
		} else {
			if inPlace && table != "" {
				fmt.Fprintf(w, "\x1b[%dA\x1b[J", strings.Count(table, "\n"))
			}
			fmt.Fprint(w, next)
		}
		table = next
		time.Sleep(interval)
	}
}

// poll fetches the registry's runs document and returns the runs id selects
// (0 = all), live and completed, in ID order.
func poll(url string, id uint64) ([]obs.RunInfo, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	var doc obs.RunsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	runs := slices.DeleteFunc(append(doc.Live, doc.Completed...), func(r obs.RunInfo) bool {
		return id != 0 && r.ID != id
	})
	slices.SortFunc(runs, func(a, b obs.RunInfo) int { return cmp.Compare(a.ID, b.ID) })
	return runs, nil
}

// render returns runs as a fixed-width table. ELAPSED stays blank while a
// run is live.
func render(runs []obs.RunInfo) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-10s %6s %9s %9s %5s %-9s %s\n",
		"RUN", "PHASE", "DEPTH", "STEPS", "BKTRACKS", "HB", "STATE", "ELAPSED")
	for _, r := range runs {
		elapsed := ""
		if r.State != obs.StateRunning {
			elapsed = r.Elapsed.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&sb, "%-5d %-10s %6d %9d %9d %5d %-9s %s\n",
			r.ID, r.Phase, r.Depth, r.Steps, r.Backtracks, r.Heartbeats, r.State, elapsed)
	}
	return sb.String()
}

func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}
