// Command divatop is a terminal follower for live DIVA runs: it subscribes
// to an ops server's SSE event stream (/debug/diva/events) and renders one
// line per run — current phase, coloring depth, search steps, backtracks,
// learned nogoods, heartbeats, state — updating in place like top(1).
//
// Usage:
//
//	divatop [-addr 127.0.0.1:9090] [-run 3] [-interval 500ms] [-once]
//
// -run follows a single run (default: all runs the server knows). -once
// prints a single snapshot once the first run reaches a terminal state (or
// the stream ends) and exits — the mode CI smokes use. Without -once the
// follower runs until the stream closes or the process is interrupted; the
// display rewrites in place on a terminal and appends snapshots otherwise.
//
// The ops server replays each run's flight recorder on connect, so divatop
// started after a short run still shows its final state and outcome.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"diva/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9090", "ops server address (host:port)")
		run      = flag.Uint64("run", 0, "follow only this run ID (0 = all runs)")
		interval = flag.Duration("interval", 500*time.Millisecond, "render interval")
		once     = flag.Bool("once", false, "print one snapshot after the first terminal run event (or stream end) and exit")
	)
	flag.Parse()

	target := "all"
	if *run > 0 {
		target = fmt.Sprint(*run)
	}
	url := fmt.Sprintf("http://%s/debug/diva/events?run=%s", *addr, target)
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("%s: %s", url, resp.Status))
	}

	board := newBoard()
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := readSSE(resp.Body, func(f frame) bool {
			board.apply(f)
			return !(*once && f.event == "run-end")
		})
		if err != nil && err != io.EOF {
			fmt.Fprintln(os.Stderr, "divatop: stream:", err)
		}
	}()

	if *once {
		<-done
		fmt.Print(board.render())
		return
	}
	inPlace := isTerminal(os.Stdout)
	t := time.NewTicker(*interval)
	defer t.Stop()
	prevLines := 0
	for {
		select {
		case <-t.C:
		case <-done:
			prevLines = draw(board, inPlace, prevLines)
			return
		}
		prevLines = draw(board, inPlace, prevLines)
	}
}

// draw renders the board; on a terminal it first rewinds over the previous
// snapshot so the display updates in place.
func draw(b *board, inPlace bool, prevLines int) int {
	out := b.render()
	if inPlace && prevLines > 0 {
		fmt.Printf("\x1b[%dA\x1b[J", prevLines)
	}
	fmt.Print(out)
	return strings.Count(out, "\n")
}

func isTerminal(f *os.File) bool {
	st, err := f.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "divatop:", err)
	os.Exit(1)
}

// frame is one parsed SSE frame: the event name and its decoded payload.
type frame struct {
	event string
	run   uint64
	entry trace.FlightEntry
}

// ssePayload mirrors the ops server's SSE data field.
type ssePayload struct {
	Run   uint64            `json:"run"`
	Entry trace.FlightEntry `json:"entry"`
}

// readSSE parses a Server-Sent Events stream, calling apply for every
// complete frame. apply returning false stops the read. Lines other than
// "event:"/"data:" (comments, ids) are ignored, as are frames whose data is
// not a run-event payload.
func readSSE(r io.Reader, apply func(frame) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data != "" {
				var p ssePayload
				if err := json.Unmarshal([]byte(data), &p); err == nil {
					if !apply(frame{event: event, run: p.Run, entry: p.Entry}) {
						return nil
					}
				}
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.EOF
}

// runRow is the rendered state of one run.
type runRow struct {
	id         uint64
	phase      string
	depth      int
	steps      int
	backtracks int
	nogoods    int
	heartbeats int
	state      string // "running" until a run-end event names the outcome
	elapsed    time.Duration
}

// board accumulates run state from the event stream. Goroutine-safe: the
// reader applies frames while the render loop snapshots.
type board struct {
	mu   sync.Mutex
	runs map[uint64]*runRow
}

func newBoard() *board { return &board{runs: make(map[uint64]*runRow)} }

func (b *board) apply(f frame) {
	b.mu.Lock()
	defer b.mu.Unlock()
	row, ok := b.runs[f.run]
	if !ok {
		row = &runRow{id: f.run, state: "running"}
		b.runs[f.run] = row
	}
	ev := f.entry.Event
	switch ev.Kind {
	case trace.KindPhaseStart:
		row.phase = string(ev.Phase)
	case trace.KindProgress:
		row.heartbeats++
		if ev.Steps > row.steps {
			row.steps = ev.Steps
		}
		row.depth = ev.Depth
		row.backtracks = ev.Backtracks
		row.nogoods = ev.Nogoods
	case trace.KindNogood:
		row.nogoods += max(ev.N, 1)
	case trace.KindRunEnd:
		row.state = ev.Label
		row.elapsed = ev.Elapsed
		if m := ev.Metrics; m != nil {
			row.steps, row.backtracks, row.nogoods = m.Steps, m.Backtracks, m.NogoodsLearned
		}
	}
}

// render returns the board as a fixed-width table, runs in ID order.
func (b *board) render() string {
	b.mu.Lock()
	rows := make([]*runRow, 0, len(b.runs))
	for _, row := range b.runs {
		r := *row
		rows = append(rows, &r)
	}
	b.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-10s %6s %9s %9s %8s %5s %-9s %s\n",
		"RUN", "PHASE", "DEPTH", "STEPS", "BKTRACKS", "NOGOODS", "HB", "STATE", "ELAPSED")
	for _, r := range rows {
		elapsed := ""
		if r.elapsed > 0 {
			elapsed = r.elapsed.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&sb, "%-5d %-10s %6d %9d %9d %8d %5d %-9s %s\n",
			r.id, r.phase, r.depth, r.steps, r.backtracks, r.nogoods, r.heartbeats, r.state, elapsed)
	}
	return sb.String()
}
