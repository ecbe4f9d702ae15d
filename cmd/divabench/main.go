// Command divabench regenerates the tables and figures of the paper's
// evaluation section on the synthetic stand-in datasets.
//
// Usage:
//
//	divabench [-exp id[,id...]] [-scale 0.1] [-seed N] [-k 10] [-sigma 8]
//	          [-csv] [-json] [-bench-out BENCH_x.json] [-quiet]
//
// With no -exp, every experiment runs in paper order. -scale multiplies the
// |R| sweeps (1.0 = the paper's full sizes; expect hours). -csv prints
// machine-readable series instead of aligned text; -json emits one JSON
// document holding every experiment's table together with the engine's
// per-phase wall-time breakdown (bind, build-graph, color, suppress,
// baseline, integrate, verify) accumulated while the experiment ran. In
// text mode the same breakdown appears as a note under each table.
//
// -bench-out writes a BENCH_*.json snapshot — the reproduction command, the
// harness configuration, and every table with its phase seconds — the
// format the repo's BENCH_* trajectory files use for cross-commit performance
// comparisons. When a run-history ledger is configured
// (-history-dir, default $DIVA_HISTORY_DIR), the same tables also append to
// it as one record per experiment, putting the bench trajectory on the
// ledger `divahist diff`/`gate` compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"diva/internal/bench"
	"diva/internal/history"
	"diva/internal/obs"
	"diva/internal/trace"
)

func main() {
	var all []string
	for _, e := range bench.Experiments() {
		all = append(all, e.ID)
	}
	var (
		exp      = flag.String("exp", "", "comma-separated experiment ids (default: all, in this order): "+strings.Join(all, ", "))
		scale    = flag.Float64("scale", 0.1, "scale factor for |R| sweeps (1.0 = paper sizes)")
		seed     = flag.Uint64("seed", 0, "random seed (0 = harness default)")
		k        = flag.Int("k", 0, "default privacy parameter k (0 = harness default 10)")
		sigma    = flag.Int("sigma", 0, "default |Sigma| (0 = harness default 8)")
		baseline = flag.String("baseline", "", "rest-row partitioner for DIVA runs: empty = engine default (parallel mondrian), k-member = greedy k-member clustering")
		csvOut   = flag.Bool("csv", false, "emit CSV series instead of aligned text")
		jsonOut  = flag.Bool("json", false, "emit one JSON document with every table and its phase breakdown")
		outDir   = flag.String("out", "", "additionally write one <id>.csv per experiment into this directory")
		benchOut = flag.String("bench-out", "", "write a BENCH_*.json snapshot (every table with its phase seconds) to this file")
		histDir  = flag.String("history-dir", os.Getenv(history.EnvDir), "with -bench-out, additionally append one record per table to the run-history ledger in this directory (default $DIVA_HISTORY_DIR)")
		quiet    = flag.Bool("quiet", false, "suppress per-point progress on stderr")
	)
	flag.Parse()

	cfg := bench.Config{
		Scale:          *scale,
		Seed:           *seed,
		K:              *k,
		NumConstraints: *sigma,
		Baseline:       *baseline,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	ids := all
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}

	exit := 0
	var tables []*bench.Table
	collect := *jsonOut || *benchOut != ""
	for _, id := range ids {
		e, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "divabench: unknown experiment %q\n", id)
			exit = 2
			continue
		}
		// The engine folds every run's phase timings into the process-wide
		// metrics registry; the delta across e.Run is this experiment's
		// phase breakdown.
		before := obs.PhaseSeconds()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "divabench: %s: %v\n", e.ID, err)
			exit = 1
			continue
		}
		phases := make(map[trace.Phase]float64)
		for ph, s := range obs.PhaseSeconds() {
			if d := s - before[ph]; d > 0 {
				phases[ph] = d
			}
		}
		if len(phases) > 0 {
			table.PhaseSeconds = make(map[string]float64, len(phases))
			for ph, s := range phases {
				table.PhaseSeconds[string(ph)] = s
			}
			table.Notes = append(table.Notes, "engine phases: "+trace.FormatPhaseSeconds(phases))
		}
		if collect {
			tables = append(tables, table)
		}
		if !*jsonOut {
			printTable(os.Stdout, table, *csvOut)
		}
		if *outDir != "" {
			if err := writeCSVFile(*outDir, table); err != nil {
				fmt.Fprintf(os.Stderr, "divabench: %s: %v\n", e.ID, err)
				exit = 1
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintf(os.Stderr, "divabench: %v\n", err)
			exit = 1
		}
	}
	if *benchOut != "" {
		if err := writeBenchSnapshot(*benchOut, cfg, ids, tables); err != nil {
			fmt.Fprintf(os.Stderr, "divabench: %v\n", err)
			exit = 1
		}
		if *histDir != "" {
			if err := appendHistory(*histDir, cfg, tables); err != nil {
				fmt.Fprintf(os.Stderr, "divabench: %v\n", err)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}

// benchSnapshot is the BENCH_*.json schema: the reproduction command, the
// harness configuration, and every table with its per-phase seconds — the
// bench trajectory a later snapshot is compared against.
type benchSnapshot struct {
	Description string         `json:"description"`
	Command     string         `json:"command"`
	Config      bench.Config   `json:"config"`
	Tables      []*bench.Table `json:"tables"`
}

func writeBenchSnapshot(path string, cfg bench.Config, ids []string, tables []*bench.Table) error {
	cfg.Progress = nil // not serializable, and meaningless in a snapshot
	snap := benchSnapshot{
		Description: "divabench snapshot: " + strings.Join(ids, ","),
		Command:     "go run ./cmd/divabench -exp " + strings.Join(ids, ",") + fmt.Sprintf(" -scale %g -bench-out %s", cfg.Scale, filepath.Base(path)),
		Config:      cfg,
		Tables:      tables,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendHistory appends one synthetic record per benchmarked table to the
// run-history ledger: the experiment ID as the Bench fingerprint, the
// aggregate phase_seconds breakdown as the metrics. This puts the bench
// trajectory on the same ledger the per-run engine deposits use, so
// `divahist` compares snapshot-to-snapshot trends with the same noise floor
// as run-to-run ones. The engine's own per-run deposits during the bench are
// independent (they only happen when the engine sees a history dir, which
// the harness does not set per run).
func appendHistory(dir string, cfg bench.Config, tables []*bench.Table) error {
	l, err := history.Shared(dir)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		m := tbl.PhaseMetrics()
		if m == nil {
			continue
		}
		rec := &history.Record{
			Outcome: "ok",
			Config: history.Config{
				Bench:       tbl.ID,
				K:           cfg.K,
				Constraints: cfg.NumConstraints,
				Baseline:    cfg.Baseline,
			},
			Metrics: m,
		}
		if err := l.Append(rec); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVFile(dir string, t *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	t.CSV(f)
	return f.Close()
}

func printTable(w io.Writer, t *bench.Table, csv bool) {
	if csv {
		fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title)
		t.CSV(w)
		fmt.Fprintln(w)
		return
	}
	t.Print(w)
}
