package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"diva/internal/core"
	"diva/internal/metrics"
	"diva/internal/search"
	"diva/internal/trace"
	"diva/internal/verify"
)

// runner drives one workload's parsed instances through core.Anonymize: one
// caller, runs issued back to back.
type runner struct {
	w     *workload
	seed  uint64
	insts []*instance
	gate  gate
	// stars records each instance's ★ count from its first run (-1 when
	// infeasible); every later run of the instance must reproduce it.
	stars []int
	// clock samples the host's speed during the timed runs.
	clock hostClock
}

// options are the engine settings of one run: the default Options with
// MinChoice, and a fresh Rng derived from the seed and the instance index so
// every run of an instance is the same computation.
func (r *runner) options(i int, tr trace.Tracer) core.Options {
	inst := r.insts[i]
	return core.Options{
		K:         inst.k,
		Strategy:  search.MinChoice,
		Rng:       rand.New(rand.NewPCG(r.seed, uint64(i))),
		Criterion: inst.crit,
		Shards:    r.w.shards,
		Tracer:    tr,
	}
}

// sample is one timed core.Anonymize call.
type sample struct {
	res   *core.Result
	err   error
	wall  time.Duration
	alloc uint64
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocated reads the process's cumulative heap allocation without stopping
// the world, unlike runtime.ReadMemStats.
func allocated() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func (r *runner) anonymize(i int, tr trace.Tracer) sample {
	inst := r.insts[i]
	opts := r.options(i, tr)
	a0 := allocated()
	start := time.Now()
	res, err := core.Anonymize(context.Background(), inst.rel, inst.sigma, opts)
	wall := time.Since(start)
	return sample{res: res, err: err, wall: wall, alloc: allocated() - a0}
}

// check gates one run: the verdict the workload expects, a full
// verify.ValidateOutput of every published relation, and the same ★ count
// on every run of an instance.
func (r *runner) check(i int, s sample) error {
	inst := r.insts[i]
	if s.err != nil {
		// Under a privacy criterion the partitioners report an unsatisfiable
		// remainder with plain errors; the differential suite counts any
		// error as infeasible there, and so does the benchmark.
		if !errors.Is(s.err, core.ErrNoDiverseClustering) && inst.crit == nil {
			return fmt.Errorf("unexpected error: %w", s.err)
		}
		if r.w.expect == feasible {
			return fmt.Errorf("expected a published relation: %w", s.err)
		}
		return r.sameStars(i, -1)
	}
	if r.w.expect == infeasible {
		return errors.New("expected infeasible, but a relation was published")
	}
	rep := verify.ValidateOutput(inst.rel, s.res.Output, inst.sigma, inst.k, verify.Options{
		Criterion:       inst.crit,
		SkipContainment: !r.w.containment,
		CheckStars:      true,
		Stars:           s.res.Metrics.SuppressedCells,
	})
	if err := rep.Err(); err != nil {
		return err
	}
	return r.sameStars(i, rep.Stars)
}

func (r *runner) sameStars(i, stars int) error {
	if r.stars == nil {
		r.stars = make([]int, len(r.insts))
		for j := range r.stars {
			r.stars[j] = -2
		}
	}
	switch r.stars[i] {
	case -2:
		r.stars[i] = stars
	case stars:
	default:
		return fmt.Errorf("nondeterministic output: %d stars, an earlier run had %d", stars, r.stars[i])
	}
	return nil
}

// gate counts checked runs and failures; failed/attempted is failed_frac.
type gate struct {
	attempted, failed int
	log               io.Writer
}

func (g *gate) record(what string, err error) {
	g.attempted++
	if err == nil {
		return
	}
	g.failed++
	if g.failed <= 5 && g.log != nil {
		fmt.Fprintf(g.log, "bench: FAIL %s: %v\n", what, err)
	}
}

// quality accumulates the exact output metrics over one pass.
type quality struct {
	runs, solved int
	stars        int
	accuracy     float64
}

func (q *quality) add(s sample) {
	q.runs++
	if s.err != nil {
		return
	}
	q.solved++
	q.stars += s.res.Metrics.SuppressedCells
	q.accuracy += metrics.Accuracy(s.res.Output)
}

// into writes stars, accuracy (mean over published relations, 0 when none
// was published) and solved_frac.
func (q *quality) into(m map[string]float64) {
	m["stars"] = float64(q.stars)
	m["accuracy"] = 0
	if q.solved > 0 {
		m["accuracy"] = q.accuracy / float64(q.solved)
	}
	m["solved_frac"] = float64(q.solved) / float64(q.runs)
}

// setupReps is how often set-up is repeated; setup_s is the median.
const setupReps = 3

// warmRuns bounds the untimed warm-up runs of a set-up.
const warmRuns = 8

// setup parses every input and runs the first few instances untimed, which
// pages in the code, fills the engine's pools and grows the heap. It repeats
// setupReps times and returns the median duration; checking the warm-up
// outputs is not timed.
func (r *runner) setup(inputs []input) (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		r.insts = nil
		runtime.GC() // each set-up starts without the previous one's garbage
		start := time.Now()
		insts, err := parseAll(inputs)
		if err != nil {
			return 0, err
		}
		r.insts = insts
		spent := time.Since(start)
		for i := 0; i < min(len(insts), warmRuns); i++ {
			s := r.measured(i, nil)
			spent += s.wall
			r.gate.record(fmt.Sprintf("warm-up run of instance %d", i), r.check(i, s))
		}
		times = append(times, spent.Seconds())
	}
	return median(times), nil
}

// collectBeforeRows is the input size from which a run starts on a
// collected heap. A census run allocates about as much as its live heap, so
// where the previous run's and the validation's garbage meet the GC cycle
// otherwise decides how many cycles land in the run and how high the heap
// peaks: without it, peak RSS of census-60k-sharded varied by 28% from seed
// to seed. Runs on small inputs average their GC cycles over thousands of
// runs instead.
const collectBeforeRows = 10000

// measured is anonymize for the timed, ladder and traced runs.
func (r *runner) measured(i int, tr trace.Tracer) sample {
	if r.insts[i].rel.Len() >= collectBeforeRows {
		runtime.GC()
	}
	return r.anonymize(i, tr)
}

// timed runs whole passes over the instances until seconds have elapsed
// (at least one pass) and returns the end-to-end metrics, timings in
// host-normalized seconds, with the raw ones under a "raw." prefix.
func (r *runner) timed(seconds float64) map[string]float64 {
	var walls []float64
	var rows int
	var wallSum time.Duration
	var alloc uint64
	var q quality
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < seconds; pass++ {
		for i, inst := range r.insts {
			s := r.measured(i, nil)
			r.clock.tick(s.wall)
			walls = append(walls, s.wall.Seconds())
			wallSum += s.wall
			rows += inst.rel.Len()
			alloc += s.alloc
			r.gate.record(fmt.Sprintf("pass %d instance %d", pass, i), r.check(i, s))
			if pass == 0 {
				q.add(s)
			}
		}
	}
	sort.Float64s(walls)
	m := map[string]float64{
		"raw.wall_s.p50": quantile(walls, 0.50),
		"raw.wall_s.p90": quantile(walls, 0.90),
		"raw.wall_s.p99": quantile(walls, 0.99),
		"raw.rows_per_s": float64(rows) / wallSum.Seconds(),
		"alloc_mb":       float64(alloc) / 1e6 / float64(len(walls)),
		"samples":        float64(len(walls)),
		"host.ref_s":     median(r.clock.samples),
	}
	scale := r.clock.scale()
	for _, name := range []string{"wall_s.p50", "wall_s.p90", "wall_s.p99"} {
		m[name] = m["raw."+name] * scale
	}
	m["rows_per_s"] = m["raw.rows_per_s"] / scale
	q.into(m)
	return m
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
