// Command bench is the repository benchmark: it measures the default
// core.Anonymize path (MinChoice, Mondrian, always-on telemetry, GOMAXPROCS
// = all cores) on four workloads and checks every output.
//
// Usage, from the repository root (bench/bench.sh builds and runs it):
//
//	bench -workload census-300k -seed 20210323 -seconds 12 -trace 0
//	bench -workload dense-conflict -trace 1 -spans spans.json
//	bench -compare set1/ set2/
//
// The benchmark is a closed loop: one caller issues runs back to back. It
// generates every input from -seed alone, renders it to annotated CSV and Σ
// text, and hands the engine only what it parsed back. With -trace 0 it
// prints the end-to-end metrics named in BENCHMARK.json; with -trace 1 the
// per-layer ones, measured in a separate run (see traced.go). Every metric
// is printed as "workload metric value unit"; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any run failed its checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"

	"diva/internal/history"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// catalogue is the part of BENCHMARK.json the benchmark reads: the metrics
// it must print, with their units and regression bounds.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadCatalogue(path string) (*catalogue, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalogue
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run: census-300k, census-60k-sharded, dense-conflict or micro-batch")
		seed     = fs.Uint64("seed", 20210323, "input generation seed")
		seconds  = fs.Float64("seconds", 10, "measuring time; whole passes over the workload's instances, at least one")
		traceArg = fs.Int("trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		spansOut = fs.String("spans", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		quick    = fs.Bool("quick", false, "small inputs, for tests")
		catPath  = fs.String("benchmark", "BENCHMARK.json", "the benchmark definition naming the metrics to print")
		compare  = fs.Bool("compare", false, "compare two directories of result lines (bench -compare set1 set2)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cat, err := loadCatalogue(*catPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two directories"))
		}
		return compareSets(cat, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceArg != 0 && *traceArg != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	traced := *traceArg == 1
	// No ledger I/O may enter the timings.
	os.Unsetenv(history.EnvDir)

	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		w.name, *seed, *seconds, *traceArg, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if !w.containment {
		fmt.Fprintln(stdout, "# outputs validated with SkipContainment: the R ⊑ R′ matching is O(|R|²) at census scale")
	}

	inputs, err := w.generate(*seed, *quick)
	if err != nil {
		return fail(err)
	}
	r := &runner{w: w, seed: *seed, gate: gate{log: stderr}}
	setupS, err := r.setup(inputs)
	if err != nil {
		return fail(err)
	}
	runtime.GC() // set-up garbage stays out of the measurement
	var m map[string]float64
	specs := cat.EndToEnd
	if traced {
		spans := newSpanLog()
		m = r.traced(inputs, *seconds, spans)
		specs = cat.PerLayer
		if *spansOut != "" {
			if err := spans.writeChrome(*spansOut); err != nil {
				return fail(fmt.Errorf("writing spans: %w", err))
			}
		}
	} else {
		m = r.timed(*seconds)
		m["raw.setup_s"] = setupS
		m["setup_s"] = setupS * r.clock.scale()
		if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return fail(err)
		}
		// p99 is meaningful only with ≥ 1000 samples (micro-batch), so it is
		// printed here rather than gated in BENCHMARK.json.
		fmt.Fprintf(stdout, "# samples=%g wall_s.p99=%g stars=%g accuracy=%g solved_frac=%g\n",
			m["samples"], m["wall_s.p99"], m["stars"], m["accuracy"], m["solved_frac"])
		fmt.Fprintf(stdout, "# raw (unnormalized): host.ref_s=%g wall_s.p50=%g wall_s.p90=%g wall_s.p99=%g rows_per_s=%g setup_s=%g\n",
			m["host.ref_s"], m["raw.wall_s.p50"], m["raw.wall_s.p90"], m["raw.wall_s.p99"], m["raw.rows_per_s"], m["raw.setup_s"])
	}

	res := result{
		Correct:   r.gate.failed == 0,
		Attempted: r.gate.attempted,
		Failed:    r.gate.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok {
			return fail(fmt.Errorf("metric %s is not measured", s.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(fmt.Errorf("metric %s is %v", s.Name, v))
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(stdout, "%s %s %v %s\n", w.name, s.Name, v, s.Unit)
	}
	fmt.Fprintf(stdout, "%s failed_frac %v 1\n", w.name, float64(r.gate.failed)/float64(r.gate.attempted))
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB is the process's maximum resident set size in MB (Linux reports
// Maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
