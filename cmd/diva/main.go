// Command diva anonymizes a CSV relation under k-anonymity and diversity
// constraints, writing the anonymized relation to stdout.
//
// Usage:
//
//	diva -in data.csv -constraints sigma.txt -k 10 [-strategy MaxFanOut]
//	     [-seed 1] [-baseline mondrian] [-parallelism 4] [-verify] [-stats]
//	     [-timeout 30s] [-trace] [-metrics] [-profile out.json] [-explain]
//	     [-listen 127.0.0.1:9090] [-hold 30s] [-log-format text|json]
//	     [-history-dir .diva-history]
//
// -history-dir appends one self-describing record per run — config and
// dataset fingerprints, outcome, per-phase wall times — to the durable run
// ledger read back by `divahist` and /debug/diva/history; the
// DIVA_HISTORY_DIR environment variable is the flagless equivalent.
//
// -timeout bounds the run's wall time (the search stops promptly and the
// command exits nonzero), -trace streams phase boundaries and the portfolio
// outcome to stderr as they happen, and -metrics dumps the run's aggregated
// metrics — per-phase wall times, search counters — as JSON on stderr.
//
// -profile reconstructs the coloring search tree and writes it as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. -explain prints a search explanation on stderr — the
// culprit constraints, the dominant backtrack frontier, and, when the run
// fails, whether the last candidates were rejected by true candidate
// exhaustion or by the engine's conservative upper-bound consistency check.
// A run proved infeasible before any search (a counting proof over Σ, a
// non-QI constraint out of bounds in R, or fewer than k tuples) gets the
// verdict "refuted" and the proof itself. It prints before the nonzero exit,
// so it is most useful on infeasible instances.
//
// -listen starts the ops HTTP server for the life of the process: /metrics
// (Prometheus text exposition), /debug/vars (expvar), /debug/pprof/*, and
// /debug/diva/runs (JSON of live and recently completed runs). Use ":0" for
// an ephemeral port; the bound address is printed on stderr. -hold keeps the
// process alive that long after the run finishes so scrapers can collect.
// -log-format switches on structured run logging (log/slog) on stderr, in
// logfmt-style text or JSON.
//
// The input CSV header must annotate each column as NAME:role[:kind], e.g.
//
//	GEN:qi,ETH:qi,AGE:qi:numeric,PRV:qi,CTY:qi,DIAG:sensitive
//
// The constraints file holds one constraint per line in the paper's
// notation, e.g.
//
//	ETH[Asian], 2, 5
//	ETH[African], 1, 3
//	CTY[Vancouver], 2, 4
//
// Running without -constraints applies the plain baseline anonymizer to the
// whole relation: a run with an empty Σ, which every flag above treats like
// any other run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"diva"
	"diva/internal/metrics"
	"diva/internal/obs"
	"diva/internal/report"
	"diva/internal/search"
	"diva/internal/trace"
)

func main() {
	var (
		in          = flag.String("in", "", "input CSV with annotated header (required)")
		constraints = flag.String("constraints", "", "diversity constraints file (one per line)")
		historyDir  = flag.String("history-dir", "", "append one record per run to the durable run-history ledger in this directory (empty = $DIVA_HISTORY_DIR, or off)")
		k           = flag.Int("k", 3, "privacy parameter: minimum QI-group size")
		strategy    = flag.String("strategy", "MaxFanOut", "node-selection strategy: Basic, MinChoice or MaxFanOut")
		seed        = flag.Uint64("seed", 1, "random seed for reproducible runs")
		baseline    = flag.String("baseline", "mondrian", "off-the-shelf anonymizer: mondrian, k-member or oka")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for every data-parallel pass: the mondrian baseline, the -shards fan-out and the engine's row passes (0 = GOMAXPROCS, 1 = one goroutine; output is identical at every value)")
		verifyFlag  = flag.Bool("verify", false, "re-check every published relation (k-anonymity, R ⊑ R', Σ, l-diversity, ★ accounting) before printing")
		stats       = flag.Bool("stats", false, "print metrics to stderr")
		ldiv        = flag.Int("ldiversity", 0, "additionally require distinct l-diversity with this l (0 = off)")
		parallel    = flag.Int("parallel", 0, "run this many concurrent coloring searches (0 = sequential)")
		shards      = flag.Int("shards", 0, "component-wise engine: decompose constraints into independent components colored concurrently (0 = off, -1 = auto, any value ≥ 2 = on)")
		reportFmt   = flag.String("report", "", "write a run report to stderr: text, markdown or json")
		timeout     = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		traceFlag   = flag.Bool("trace", false, "stream phase boundaries and portfolio outcomes to stderr")
		metricsDump = flag.Bool("metrics", false, "dump the run's aggregated metrics as JSON on stderr")
		profileOut  = flag.String("profile", "", "write the run's search profile as Chrome trace-event JSON (Perfetto-loadable) to this file")
		explain     = flag.Bool("explain", false, "print a search explanation on stderr: culprit constraints, backtrack frontier, and — on failure — whether upper-bound pruning or true candidate exhaustion rejected the last candidates, or, for a run proved infeasible before any search, the refuted verdict and its proof")
		listen      = flag.String("listen", "", "serve ops endpoints (/metrics, /debug/vars, /debug/pprof, /debug/diva/runs, /debug/diva/events, /debug/diva/incidents, /debug/diva/profile) on this address (\":0\" = ephemeral port)")
		hold        = flag.Duration("hold", 0, "keep the process (and its -listen ops server) alive this long after the run (0 = exit when done; SIGINT/SIGTERM end the hold early)")
		stallAfter  = flag.Duration("stall-after", obs.DefaultStallThreshold, "with -listen: flag a run stalled (goroutine dump + flight-recorder snapshot at /debug/diva/incidents) when its heartbeat is older than this")
		logFormat   = flag.String("log-format", "", "structured run logging on stderr: text or json (empty = off)")
		hierarchies hierarchyFlags
	)
	flag.Var(&hierarchies, "hierarchy", "ATTR=FILE: generalize ATTR via the child->parent hierarchy in FILE instead of suppressing (repeatable)")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "diva: -in is required")
		flag.Usage()
		os.Exit(2)
	}

	var logger *slog.Logger
	if *logFormat != "" {
		var err error
		logger, err = obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
		if err != nil {
			fatal(err)
		}
		// Every finished run emits one canonical wide-event record through
		// the structured logger: full config/dataset fingerprints, phase
		// walls, search counters, outcome.
		obs.SetCanonicalLogger(logger)
	}
	// SIGINT/SIGTERM cancel the run and end -hold early so the process (and
	// its ops server) exits cleanly instead of abandoning the listener.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *listen != "" {
		// Per-run profiles are cheap enough to keep for every run the ops
		// server can serve (/debug/diva/profile/{runID}).
		obs.EnableProfiling(true)
		srv, err := obs.Serve(*listen)
		if err != nil {
			fatal(err)
		}
		watchdog := obs.NewWatchdog(obs.Runs, *stallAfter, 0)
		watchdog.Start()
		cleanup = func() {
			watchdog.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}
		defer runCleanup()
		if logger != nil {
			logger.Info("ops server listening", slog.String("addr", srv.Addr().String()))
		} else {
			fmt.Fprintf(os.Stderr, "diva: ops server listening on http://%s\n", srv.Addr())
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	rel, err := diva.ReadAnnotatedCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var sigma diva.Constraints
	if *constraints != "" {
		cf, err := os.Open(*constraints)
		if err != nil {
			fatal(err)
		}
		sigma, err = diva.ParseConstraints(cf)
		cf.Close()
		if err != nil {
			fatal(err)
		}
	}

	strat, err := search.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	bl, err := diva.ParseBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	hs, err := hierarchies.load()
	if err != nil {
		fatal(err)
	}
	opts := diva.Options{
		K:           *k,
		Strategy:    strat,
		Seed:        *seed,
		Baseline:    bl,
		LDiversity:  *ldiv,
		Parallel:    *parallel,
		Shards:      *shards,
		Parallelism: *parallelism,
		Hierarchies: hs,
		HistoryDir:  *historyDir,
	}
	var tracers []diva.Tracer
	if *traceFlag {
		tracers = append(tracers, diva.NewWriterTracer(os.Stderr))
	}
	if logger != nil {
		tracers = append(tracers, obs.NewSlogTracer(logger))
	}
	var prof *diva.Profiler
	if *profileOut != "" || *explain {
		prof = diva.NewProfiler()
		tracers = append(tracers, prof)
	}
	opts.Tracer = trace.Tee(tracers...)

	ctx := sigCtx
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if logger != nil {
		logger.Info("run start",
			slog.Int("rows", rel.Len()),
			slog.Int("constraints", len(sigma)),
			slog.Int("k", *k),
			slog.String("strategy", strat.String()),
			slog.Int("parallel", *parallel))
	}
	res, err := diva.AnonymizeContext(ctx, rel, sigma, opts)
	if res != nil {
		if *traceFlag {
			dumpPhases(res.Metrics)
		}
		if *metricsDump {
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			enc.Encode(res.Metrics)
		}
	}
	// Finalize the profile before bailing on error: -explain exists
	// precisely for the infeasible exit path.
	if prof != nil {
		p := prof.Profile()
		if *profileOut != "" {
			if werr := writeProfile(*profileOut, p); werr != nil {
				fatal(werr)
			}
			fmt.Fprintf(os.Stderr, "diva: search profile written to %s (load it at ui.perfetto.dev or chrome://tracing)\n", *profileOut)
		}
		if *explain {
			fmt.Fprint(os.Stderr, p.Explain().String())
		}
	}
	if err != nil {
		fatal(err)
	}
	out := res.Output
	if *verifyFlag {
		verifyOutput(rel, out, sigma, *k, diva.ValidateOptions{
			LDiversity: *ldiv,
			// Generalized outputs hold ancestor labels rather than original
			// values or ★, so strict containment cannot hold; the remaining
			// checks (k-anonymity, Σ, l-diversity, ★ accounting) still apply.
			SkipContainment: hs != nil,
			CheckStars:      true,
			Stars:           res.Metrics.SuppressedCells,
		})
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "coloring: %d steps, %d backtracks; integrate repaired %d cells\n",
			res.Stats.Steps, res.Stats.Backtracks, res.RepairedCells)
		fmt.Fprintln(os.Stderr, metrics.Summarize(out, *k))
	}
	if *reportFmt != "" {
		rep, err := report.Build(out, sigma, *k)
		if err != nil {
			fatal(err)
		}
		if err := rep.Write(os.Stderr, *reportFmt); err != nil {
			fatal(err)
		}
	}
	if err := diva.WriteCSV(os.Stdout, out); err != nil {
		fatal(err)
	}
	if *hold > 0 {
		if logger != nil {
			logger.Info("holding after run", slog.Duration("hold", *hold))
		} else if *listen != "" {
			fmt.Fprintf(os.Stderr, "diva: holding for %s (ops server stays up)\n", *hold)
		}
		select {
		case <-time.After(*hold):
		case <-sigCtx.Done():
			fmt.Fprintln(os.Stderr, "diva: interrupted, shutting down")
		}
	}
}

// cleanup, when set, releases the ops server (graceful Shutdown) and stops
// the watchdog. runCleanup runs it at most once; fatal runs it too, so error
// exits don't abandon the listener.
var cleanup func()

func runCleanup() {
	if cleanup != nil {
		cleanup()
		cleanup = nil
	}
}

// fatal prints err and exits 1. Engine errors already begin with "diva: ",
// so the prefix is added only to messages that lack it.
func fatal(err error) {
	runCleanup()
	msg := err.Error()
	if !strings.HasPrefix(msg, "diva: ") {
		msg = "diva: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// writeProfile writes a search profile as Chrome trace-event JSON.
func writeProfile(path string, p *diva.SearchProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// verifyOutput re-checks a published relation against every invariant the
// engine promises and exits nonzero with the full violation list if any is
// broken; on success it confirms on stderr what was checked.
func verifyOutput(orig, out *diva.Relation, sigma diva.Constraints, k int, opts diva.ValidateOptions) {
	rep := diva.ValidateOutput(orig, out, sigma, k, opts)
	if err := rep.Err(); err != nil {
		fatal(err)
	}
	note := ""
	if opts.SkipContainment {
		note = " (containment skipped: generalized output)"
	}
	fmt.Fprintf(os.Stderr, "diva: verify ok: %d suppressed cells across %d QI-groups%s\n",
		rep.Stars, rep.Groups, note)
}

// dumpPhases prints the per-phase wall-time breakdown; the phases cover the
// whole run, so their sum tracks the total.
func dumpPhases(m *diva.RunMetrics) {
	var sum time.Duration
	for _, pt := range m.Phases {
		fmt.Fprintf(os.Stderr, "phase %-12s %12s\n", pt.Phase, pt.Duration)
		sum += pt.Duration
	}
	fmt.Fprintf(os.Stderr, "phase %-12s %12s (total %s)\n", "sum", sum, m.Total)
}

// hierarchyFlags collects repeated -hierarchy ATTR=FILE flags.
type hierarchyFlags []string

func (h *hierarchyFlags) String() string { return strings.Join(*h, ",") }

func (h *hierarchyFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want ATTR=FILE, got %q", v)
	}
	*h = append(*h, v)
	return nil
}

func (h hierarchyFlags) load() (diva.Hierarchies, error) {
	if len(h) == 0 {
		return nil, nil
	}
	hs := diva.Hierarchies{}
	for _, spec := range h {
		attr, file, _ := strings.Cut(spec, "=")
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		hier, err := diva.ParseHierarchy(attr, string(data))
		if err != nil {
			return nil, err
		}
		hs[attr] = hier
	}
	return hs, nil
}
