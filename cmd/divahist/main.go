// Command divahist inspects the durable run-history ledger written by the
// engine when -history-dir / DIVA_HISTORY_DIR is set, and turns it into a
// perf-regression gate for CI.
//
// Usage:
//
//	divahist [-dir DIR] list [-n 20] [-outcome ok] [-key HASH/HASH] [-bench yes|no]
//	divahist [-dir DIR] show <selector>
//	divahist [-dir DIR] diff [-max-regress 15%] [<old> [<new>]]
//	divahist [-dir DIR] gate [-baseline FILE] [-max-regress 15%] [-candidate <selector>]
//
// -dir defaults to $DIVA_HISTORY_DIR. A <selector> is "latest" (the default
// new side), "prev", "#N" (1-based append order, negative from the end), a
// record ID, or a unique ID prefix.
//
// diff compares two records phase by phase and prints the verdict table;
// deltas inside the noise floor — the larger of a relative bound
// (-max-regress, default 15%, widened to 50% when either side has fewer
// than 3 samples), 3× the scaled median absolute deviation of the noisier
// sample, and an absolute 5ms — are reported as noise, not regressions.
// diff always exits 0; the trailing "confirmed regressions: N" line is the
// machine-readable summary.
//
// gate is diff with teeth: the candidate run (default: the latest record)
// is judged against its baseline and the command exits 1 when any confirmed
// regression survives the noise floor — wired into `make ci` as
// history-smoke. The baseline is, in order of preference: the records named
// by -baseline FILE (a history ledger file/directory, or a divabench
// BENCH_*.json snapshot whose per-table phase_seconds become synthetic
// records), or every earlier ledger record sharing the candidate's
// config+dataset fingerprint, or — when the candidate's fingerprint was
// never seen before — nothing, in which case the gate passes vacuously
// ("new experiment" is not a regression).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"diva/internal/bench"
	"diva/internal/history"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	dir := os.Getenv(history.EnvDir)
	// A leading -dir applies to every subcommand.
	for len(args) > 0 {
		if args[0] == "-dir" || args[0] == "--dir" {
			if len(args) < 2 {
				return usage("-dir needs a value")
			}
			dir, args = args[1], args[2:]
			continue
		}
		break
	}
	if len(args) == 0 {
		return usage("missing subcommand (list, show, diff or gate)")
	}
	cmd, args := args[0], args[1:]
	if dir == "" {
		return usage("no ledger directory: pass -dir or set " + history.EnvDir)
	}
	loaded, err := history.Load(dir)
	if err != nil {
		return fail(err)
	}
	switch cmd {
	case "list":
		return list(loaded, args)
	case "show":
		return show(loaded.Records, args)
	case "diff":
		return diff(loaded.Records, args)
	case "gate":
		return gate(loaded.Records, args)
	}
	return usage("unknown subcommand " + strconv.Quote(cmd))
}

func usage(msg string) int {
	fmt.Fprintln(os.Stderr, "divahist:", msg)
	fmt.Fprintln(os.Stderr, "usage: divahist [-dir DIR] list|show|diff|gate [args]")
	return 2
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "divahist:", err)
	return 1
}

func list(loaded *history.Loaded, args []string) int {
	var (
		n       = 20
		outcome string
		key     string
		benchF  string
	)
	for len(args) > 0 {
		flagName := args[0]
		if len(args) < 2 {
			return usage(flagName + " needs a value")
		}
		val := args[1]
		args = args[2:]
		switch flagName {
		case "-n":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return usage("bad -n " + strconv.Quote(val))
			}
			n = v
		case "-outcome":
			outcome = val
		case "-key":
			key = val
		case "-bench":
			benchF = val
		default:
			return usage("unknown list flag " + strconv.Quote(flagName))
		}
	}
	recs := history.Select(loaded.Records, history.Filter{Outcome: outcome, Key: key, Bench: benchF})
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	if loaded.Skipped > 0 {
		fmt.Fprintf(os.Stderr, "divahist: %d unparseable ledger lines skipped\n", loaded.Skipped)
	}
	const row = "%-5s %-18s %-20s %-11s %4s %8s %7s %12s %9s  %s\n"
	fmt.Printf(row, "#", "ID", "TIME", "OUTCOME", "K", "ROWS", "|Σ|", "TOTAL", "ACCURACY", "KEY")
	offset := len(loaded.Records) - len(recs)
	for i, rec := range recs {
		acc, total := "-", "-"
		if rec.Metrics != nil {
			if rec.Metrics.Accuracy >= 0 {
				acc = fmt.Sprintf("%.3f", rec.Metrics.Accuracy)
			}
			total = rec.Metrics.Total.Round(time.Microsecond).String()
		}
		fmt.Printf(row, "#"+strconv.Itoa(offset+i+1), rec.ID,
			rec.Time.Format("2006-01-02T15:04:05"), rec.Outcome,
			strconv.Itoa(rec.Config.K), strconv.Itoa(rec.Dataset.Rows),
			strconv.Itoa(rec.Config.Constraints), total, acc, rec.Key())
	}
	return 0
}

func show(recs []*history.Record, args []string) int {
	if len(args) != 1 {
		return usage("show wants exactly one selector")
	}
	rec, err := history.Find(recs, args[0])
	if err != nil {
		return fail(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		*history.Record
		Key string `json:"key"`
	}{rec, rec.Key()}); err != nil {
		return fail(err)
	}
	return 0
}

// parseThresholds consumes a -max-regress value ("15%" or "0.15") into
// Thresholds.
func parseMaxRegress(val string) (float64, error) {
	s := strings.TrimSuffix(val, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad -max-regress %q (want \"15%%\" or \"0.15\")", val)
	}
	if len(s) != len(val) {
		v /= 100
	}
	return v, nil
}

func diff(recs []*history.Record, args []string) int {
	var th history.Thresholds
	var sels []string
	for len(args) > 0 {
		if args[0] == "-max-regress" {
			if len(args) < 2 {
				return usage("-max-regress needs a value")
			}
			v, err := parseMaxRegress(args[1])
			if err != nil {
				return usage(err.Error())
			}
			th.MaxRegress = v
			args = args[2:]
			continue
		}
		sels, args = append(sels, args[0]), args[1:]
	}
	selA, selB := "prev", "latest"
	switch len(sels) {
	case 0:
	case 1:
		selA = sels[0]
	case 2:
		selA, selB = sels[0], sels[1]
	default:
		return usage("diff wants at most two selectors")
	}
	a, err := history.Find(recs, selA)
	if err != nil {
		return fail(err)
	}
	b, err := history.Find(recs, selB)
	if err != nil {
		return fail(err)
	}
	rep := history.Compare([]*history.Record{a}, []*history.Record{b}, th)
	rep.Key = a.Key()
	if b.Key() != a.Key() {
		fmt.Fprintf(os.Stderr, "divahist: note: comparing across different experiment keys (%s vs %s)\n", a.Key(), b.Key())
	}
	fmt.Printf("old %s (%s)  →  new %s (%s)\n", a.ID, a.Outcome, b.ID, b.Outcome)
	rep.WriteText(os.Stdout)
	return 0
}

func gate(recs []*history.Record, args []string) int {
	var (
		th           history.Thresholds
		baselineFile string
		candidateSel = "latest"
	)
	for len(args) > 0 {
		flagName := args[0]
		if len(args) < 2 {
			return usage(flagName + " needs a value")
		}
		val := args[1]
		args = args[2:]
		switch flagName {
		case "-max-regress":
			v, err := parseMaxRegress(val)
			if err != nil {
				return usage(err.Error())
			}
			th.MaxRegress = v
		case "-baseline":
			baselineFile = val
		case "-candidate":
			candidateSel = val
		default:
			return usage("unknown gate flag " + strconv.Quote(flagName))
		}
	}
	candidate, err := history.Find(recs, candidateSel)
	if err != nil {
		return fail(err)
	}

	var old []*history.Record
	switch {
	case baselineFile != "":
		old, err = loadBaseline(baselineFile)
		if err != nil {
			return fail(err)
		}
	default:
		for _, r := range recs {
			if r != candidate && r.Key() == candidate.Key() {
				old = append(old, r)
			}
		}
		if len(old) == 0 {
			fmt.Printf("gate: candidate %s has no prior records for key %s — new experiment, gate passes vacuously\n",
				candidate.ID, candidate.Key())
			return 0
		}
	}
	if len(old) == 0 {
		return fail(fmt.Errorf("baseline %s holds no comparable records", baselineFile))
	}

	rep := history.Compare(old, []*history.Record{candidate}, th)
	rep.Key = candidate.Key()
	fmt.Printf("gate: candidate %s vs %d baseline record(s)\n", candidate.ID, len(old))
	rep.WriteText(os.Stdout)
	if rep.Regressions > 0 {
		fmt.Println("gate: FAIL")
		return 1
	}
	fmt.Println("gate: ok")
	return 0
}

// loadBaseline reads baseline records from path: a history ledger directory,
// a ledger .jsonl file's directory, or a divabench BENCH_*.json snapshot
// (detected by its leading "{"), whose tables become one synthetic record
// each from their phase_seconds breakdown.
func loadBaseline(path string) ([]*history.Record, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		loaded, err := history.Load(path)
		if err != nil {
			return nil, err
		}
		return loaded.Records, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "{") {
		return benchSnapshotRecords(data, filepath.Base(path))
	}
	// A bare ledger file: load its directory (Load knows the generations).
	loaded, err := history.Load(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	return loaded.Records, nil
}

// benchSnapshot mirrors the part of divabench's -bench-out JSON the gate
// consumes.
type benchSnapshot struct {
	Description string        `json:"description"`
	Tables      []bench.Table `json:"tables"`
}

// benchSnapshotRecords converts a BENCH_*.json snapshot into synthetic
// history records: one per table carrying phase_seconds as the phase
// breakdown (total = their sum). Tables without phase data are skipped.
func benchSnapshotRecords(data []byte, name string) ([]*history.Record, error) {
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("parse bench snapshot %s: %w", name, err)
	}
	var out []*history.Record
	for _, tbl := range snap.Tables {
		m := tbl.PhaseMetrics()
		if m == nil {
			continue
		}
		out = append(out, &history.Record{
			ID:      name + "/" + tbl.ID,
			Outcome: "ok",
			Config:  history.Config{Bench: tbl.ID},
			Metrics: m,
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench snapshot %s carries no phase_seconds tables", name)
	}
	return out, nil
}
