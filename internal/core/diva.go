// Package core implements the DIVA algorithm (Algorithm 1 of the paper):
// DiverseClustering via graph coloring, value Suppression (Algorithm 2), an
// off-the-shelf Anonymize step for the remaining tuples, and the Integrate
// repair that restores violated upper bounds.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"slices"
	"time"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/hierarchy"
	"diva/internal/obs"
	"diva/internal/privacy"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
	"diva/internal/verify"
)

// ErrNoDiverseClustering is returned when no k-anonymous relation
// satisfying the diversity constraints exists (or none was found within the
// search budget) — the paper's "relation does not exist" outcome. It is
// always returned wrapped in an error that begins "diva: " and names the
// cause, so its own text carries no prefix and a message names the package
// once.
var ErrNoDiverseClustering = errors.New("no diverse k-anonymous relation exists")

// ErrCanceled is returned when a run was aborted by context cancellation or
// deadline expiry. Errors on this path also wrap the context's own error, so
// errors.Is(err, context.Canceled) / context.DeadlineExceeded distinguish
// the two causes; the accompanying Result carries the partial RunMetrics of
// the phases that completed before the abort.
var ErrCanceled = errors.New("diva: run canceled")

// RunOutcome classifies an Anonymize error for profiles and dashboards:
// "ok" (nil), "canceled" (ErrCanceled), "infeasible"
// (ErrNoDiverseClustering), or "error".
func RunOutcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrNoDiverseClustering):
		return "infeasible"
	default:
		return "error"
	}
}

// Options configures a DIVA run.
type Options struct {
	// K is the privacy parameter (minimum QI-group size). Must be ≥ 1.
	K int
	// Strategy selects the coloring node order (Basic, MinChoice,
	// MaxFanOut).
	Strategy search.Strategy
	// Rng drives the coloring search's randomized choices: Basic node
	// selection, portfolio and component seeds. Required unless Σ holds no
	// constraint on a QI target, in which case nothing is colored and the
	// Rng is never read.
	Rng *rand.Rand
	// Cluster bounds the per-constraint candidate enumeration. The K field
	// is filled in from Options.K.
	Cluster cluster.Options
	// MaxSteps caps the coloring search; zero means the search package
	// default.
	MaxSteps int
	// Anonymizer handles the tuples outside the diverse clustering. Nil
	// means parallel Mondrian (anon.Mondrian with Parallelism workers);
	// the paper's k-member choice remains available as an explicit
	// anon.KMember. Anonymizers implementing anon.TraceSink receive the
	// run's tracer before the baseline phase, so their split events land in
	// the same stream as the coloring search.
	Anonymizer anon.Partitioner
	// Parallelism bounds the worker goroutines of every data-parallel pass
	// of the run: the default baseline partitioner, the component fan-out
	// (Shards), and the row passes split by range — rendering R′, building
	// the enumerators and the Σ-wide pool and count scans (internal/par).
	// 0 means GOMAXPROCS, 1 runs everything on the calling goroutine; a
	// row pass below the split grain runs there at any setting. The output
	// is byte-identical at every setting. It has no effect on an
	// explicitly supplied Anonymizer (configure that partitioner directly)
	// or on the coloring search (see Parallel).
	Parallelism int
	// Criterion, when non-nil, is an additional privacy requirement on
	// every QI-group of the output (e.g. privacy.DistinctLDiversity) — the
	// paper's "extensible to l-diversity, t-closeness" hook. It is
	// enforced during cluster enumeration and by the default anonymizer;
	// a custom Anonymizer must enforce it itself (the driver re-verifies
	// the final output either way).
	Criterion privacy.Criterion
	// Parallel, when > 0, runs that many concurrent coloring searches (a
	// strategy portfolio; the first to finish wins) instead of the single
	// search selected by Strategy — the paper's future-work direction of
	// parallelizing the coloring.
	Parallel int
	// Shards selects the component-wise engine: Σ is decomposed into
	// pool-disjoint connected components (constraint.Components) colored
	// concurrently, their fan-out bounded by Parallelism. 0 colors Σ as one
	// joint graph, ShardsAuto (-1) decomposes it when GOMAXPROCS and the
	// relation size allow, and any value ≥ 2 decomposes it (values below 2
	// behave like 0; all values ≥ 2 give the same output). The rest rows go
	// to the Anonymizer in one call either way. Results are deterministic
	// for a fixed seed and strategy; when the component-wise coloring
	// leaves a rest set smaller than K, the driver colors Σ again jointly,
	// under the Accept hook that forbids that outcome. Component-wise runs
	// ignore Parallel: the portfolio races whole searches, whereas the
	// decomposition splits one search into independent components.
	Shards int
	// Hierarchies, when non-nil, renders clusters by generalization
	// instead of suppression: a QI attribute a cluster disagrees on lifts
	// to the least common ancestor of its values (★ only when no finer
	// ancestor exists, or for attributes without a hierarchy). Constraint
	// satisfaction is unaffected — generalized cells, like suppressed
	// ones, contribute no target occurrences — but the published relation
	// retains partial information, priced by hierarchy.NCP.
	Hierarchies hierarchy.Set
	// Tracer, when non-nil, receives the run's typed events: phase
	// boundaries, per-node search activity, candidate-cache hits and
	// portfolio outcomes, and last a KindRunEnd carrying Result.Metrics.
	// Result.Metrics does not depend on it: the engine builds the metrics
	// from its own phase timings and search statistics.
	Tracer trace.Tracer
	// HistoryDir, when non-empty, appends one history.Record per run (every
	// outcome, not just success) to the run ledger rooted there. Empty falls
	// back to the DIVA_HISTORY_DIR environment variable; when that is also
	// empty the ledger is off. Deposits are best-effort: a ledger failure
	// never fails the run.
	HistoryDir string
}

// Result carries the output of a DIVA run along with its intermediate
// artifacts and search statistics.
type Result struct {
	// Output is R′ = RΣ ∪ Rk: the k-anonymous, diverse relation.
	Output *relation.Relation
	// Diverse is RΣ, the suppressed diverse clustering (Suppress(SΣ)).
	Diverse *relation.Relation
	// Rest is Rk, the anonymization of the remaining tuples, after the
	// Integrate repair.
	//
	// Output, Diverse and Rest share storage: Diverse and Rest are views
	// (relation.Slice) of Output's first and remaining rows, so a cell
	// written through one is seen through the others. Clone a relation
	// before modifying it.
	Rest *relation.Relation
	// Clustering is SΣ.
	Clustering cluster.Clustering
	// Stats reports the coloring search effort.
	Stats search.Stats
	// RepairedCells counts QI cells additionally suppressed by Integrate.
	RepairedCells int
	// Metrics summarizes the run: per-phase wall times, the search effort
	// of Stats, the Σ component count and the portfolio winner. It is
	// non-nil on success and on every error path (a failed run's Result
	// carries Metrics and Stats only; its relations are nil). The run's
	// terminal KindRunEnd event carries the same pointer to every tracer.
	Metrics *trace.RunMetrics
}

// Anonymize runs DIVA on rel with diversity constraints sigma: it computes
// a k-anonymous relation R′ with R ⊑ R′ and R′ |= Σ, with minimal
// suppression. It returns ErrNoDiverseClustering (possibly wrapped) when no
// such relation exists or none was found within the search budget, and
// ErrCanceled (wrapping the context's error) when ctx is canceled or its
// deadline expires — the coloring search honors the context at step
// granularity, the partitioners at split granularity.
//
// An empty sigma makes the run the off-the-shelf anonymizer alone: SΣ = ∅
// and R′ = Rk, the anonymizer's rendering of all of R. That is the paper's
// §4.2 baseline comparison, and it runs through the same phases, registry,
// ledger and tracers as every other run.
//
// Every run is decomposed into timed phases (bind, build-graph, color,
// suppress, baseline, integrate, verify) reported through opts.Tracer and
// recorded in Result.Metrics; each phase executes under a
// runtime/pprof "diva_phase" label so CPU profiles attribute time to
// coloring vs. baseline partitioning. On error the returned Result is still
// non-nil and carries the partial Metrics (its relations are nil).
func Anonymize(ctx context.Context, rel *relation.Relation, sigma constraint.Set, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	// Register with the process-wide run registry: the run is visible at
	// /debug/diva/runs (current phase, heartbeat liveness) from here until
	// its run-end event moves it to the completed ring. With ops profiling
	// on, the run also reconstructs its search profile, served at
	// /debug/diva/profile/{runID} once the run completes.
	run := obs.Runs.Begin()
	tr := trace.Tee(opts.Tracer, run)
	env := &runEnv{ctx: ctx, rel: rel, opts: &opts, tr: tr}

	// finish stamps the run's stats and metrics onto the result (building an
	// otherwise-empty one on error paths), normalizes context errors to
	// ErrCanceled, and reports the run, classified once: to the Prometheus
	// collector, then as the terminal run-end event to every tracer (the
	// caller's and the run registry, which completes the run), then to the
	// history ledger, and last releases the run so the registry may recycle
	// its flight ring.
	finish := func(res *Result, err error) (*Result, error) {
		if err != nil && !errors.Is(err, ErrCanceled) &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			err = fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		if res == nil {
			res = &Result{}
		}
		m := env.runMetrics(run.ID(), time.Since(start), res.Output, err)
		res.Stats = env.stats
		res.Metrics = m
		end := runEndEvent(m, err)
		obs.Collect(m, end.Label)
		tr.Trace(end)
		depositHistory(rel, sigma, opts, m, end.Label, err, run)
		run.Release()
		return res, err
	}

	if opts.K < 1 {
		return finish(nil, fmt.Errorf("diva: k must be ≥ 1, got %d", opts.K))
	}
	if rel.Len() > 0 && rel.Len() < opts.K {
		return finish(nil, fmt.Errorf("diva: cannot %d-anonymize %d tuples: %w", opts.K, rel.Len(), ErrNoDiverseClustering))
	}
	if opts.Anonymizer == nil {
		opts.Anonymizer = &anon.Mondrian{Criterion: opts.Criterion, Parallelism: opts.Parallelism}
	}
	if ts, ok := opts.Anonymizer.(anon.TraceSink); ok {
		ts.SetTracer(tr)
	}

	// Bind: validate Σ, resolve its targets against R, and split off the
	// constraints whose targets involve no QI attribute — those are
	// invariant under suppression (their occurrence counts cannot change in
	// any R ⊑ R′), so they must already hold in R and take no part in the
	// search.
	schema := rel.Schema()
	var bounds, searchable []*constraint.Bound
	err := env.phase(trace.PhaseBind, func(context.Context) error {
		if err := sigma.Validate(); err != nil {
			return err
		}
		var err error
		bounds, err = sigma.Bind(rel)
		if err != nil {
			return err
		}
		var fixed []*constraint.Bound
		for _, b := range bounds {
			if slices.ContainsFunc(b.Attrs, func(a int) bool { return schema.Attr(a).Role == relation.QI }) {
				searchable = append(searchable, b)
			} else {
				fixed = append(fixed, b)
			}
		}
		for i, n := range constraint.Counts(rel, fixed, opts.Parallelism) {
			if b := fixed[i]; n < b.Lower || n > b.Upper {
				return fmt.Errorf("diva: constraint (%s) targets only non-QI attributes and R has %d occurrences: %w", b, n, ErrNoDiverseClustering)
			}
		}
		// A counting proof over Σ alone ends the run here: no graph, no
		// search (DESIGN.md §4, "Refutation by counting").
		if ref := constraint.Refute(bounds, schema, opts.K); ref != nil {
			return fmt.Errorf("diva: %w: %w", ref, ErrNoDiverseClustering)
		}
		return nil
	})
	if err != nil {
		return finish(nil, err)
	}

	env.schema, env.bounds, env.searchable = schema, bounds, searchable

	// DiverseClustering (Algorithm 3): build the constraint graph and color
	// it. In joint mode there is one graph over every searchable constraint,
	// colored under the global rest-size Accept hook. Otherwise Σ is
	// decomposed into pool-disjoint components colored concurrently
	// (DESIGN.md §11); a component cannot see the global rest size, so the
	// merged clustering is judged by the same rest check afterwards, and a
	// rejection re-enters build-graph and color in joint mode.
	joint := !sharded(opts.Shards, rel.Len())
	var sigmaClustering cluster.Clustering
	for {
		comps := []constraint.Component{{Bounds: searchable}}
		var graphs []*search.Graph
		err = env.phase(trace.PhaseBuildGraph, func(context.Context) error {
			if !joint {
				comps = constraint.ComponentsParallel(rel, searchable, opts.Parallelism)
				env.components = len(comps)
			}
			copts := opts.Cluster
			copts.K = opts.K
			copts.Criterion = opts.Criterion
			copts.Parallelism = opts.Parallelism
			graphs = make([]*search.Graph, len(comps))
			for ci, comp := range comps {
				if !joint {
					tr.Trace(trace.Event{
						Kind:  trace.KindShard,
						Label: "component",
						Node:  ci,
						N:     comp.Pool.Len(),
						Depth: len(comp.Indices),
					})
				}
				graphs[ci] = search.BuildGraph(rel, comp.Bounds, copts)
				// Describe the graph's shape (node labels, conflict-edge
				// weights) under global node ids so profiles and explanations
				// can name constraints.
				graphs[ci].DescribeMapped(tr, comp.Indices)
			}
			return nil
		})
		if err != nil {
			return finish(nil, err)
		}
		err = env.phase(trace.PhaseColor, func(c context.Context) error {
			var err error
			if joint {
				sigmaClustering, err = env.colorJoint(c, graphs[0])
			} else {
				sigmaClustering, err = env.colorComponents(c, comps, graphs)
			}
			return err
		})
		if err != nil {
			return finish(nil, err)
		}
		if joint || env.acceptRest(sigmaClustering.Tuples()) {
			break
		}
		joint = true
	}

	// Suppress (Algorithm 2) on SΣ gives RΣ (generalized rendering when
	// hierarchies are supplied), the first d rows of R′.
	out, rest, err := env.suppressPhase(sigmaClustering)
	if err != nil {
		return finish(nil, err)
	}
	d := rel.Len() - len(rest)

	// Anonymize the remaining tuples with the off-the-shelf algorithm, in one
	// call over every rest row in index order, in both modes; their
	// rendering Rk completes R′.
	err = env.phase(trace.PhaseBaseline, func(c context.Context) error {
		parts, err := opts.Anonymizer.Partition(c, rel, rest, opts.K)
		if err != nil {
			return fmt.Errorf("diva: anonymizing %d remaining tuples: %w", len(rest), err)
		}
		// Rk fills the rows of R′ after RΣ exactly.
		if got := cluster.Clustering(parts).Tuples(); got != len(rest) {
			return fmt.Errorf("diva: %s partitioned %d of %d remaining tuples", opts.Anonymizer.Name(), got, len(rest))
		}
		env.stars += suppressInto(out, d, rel, parts, opts.Hierarchies, opts.Parallelism)
		return nil
	})
	if err != nil {
		return finish(nil, err)
	}

	return finish(env.integrateVerify(out, d, sigmaClustering))
}

// runEnv bundles the per-run state the phases share: the bound constraints,
// the run's tracer, and the sources finish() builds RunMetrics from — the
// timings the phase runner records, the search statistics, the component
// count, and the ★s the suppress, baseline and integrate phases wrote into
// R′.
type runEnv struct {
	ctx        context.Context
	rel        *relation.Relation
	opts       *Options
	tr         trace.Tracer
	schema     *relation.Schema
	bounds     []*constraint.Bound
	searchable []*constraint.Bound

	phases     []trace.PhaseTiming
	stats      search.Stats
	components int
	stars      int
}

// phase runs f as stage ph, bracketed by KindPhaseStart/KindPhaseEnd events
// and executed under a runtime/pprof "diva_phase" label, and records its
// timing, on the error path too. It short-circuits with the context's error
// when the run is already canceled, so no phase starts after cancellation.
func (e *runEnv) phase(ph trace.Phase, f func(context.Context) error) error {
	if err := e.ctx.Err(); err != nil {
		return err
	}
	e.tr.Trace(trace.Event{Kind: trace.KindPhaseStart, Phase: ph})
	start := time.Now()
	var err error
	pprof.Do(e.ctx, pprof.Labels("diva_phase", string(ph)), func(c context.Context) {
		err = f(c)
	})
	d := time.Since(start)
	e.tr.Trace(trace.Event{Kind: trace.KindPhaseEnd, Phase: ph, Elapsed: d})
	e.phases = append(e.phases, trace.PhaseTiming{Phase: ph, Duration: d})
	return err
}

// runMetrics assembles the run's RunMetrics — the one place they are built —
// from the recorded phase timings, the search statistics and the component
// count. out is the published relation, nil on error paths.
func (e *runEnv) runMetrics(runID uint64, total time.Duration, out *relation.Relation, err error) *trace.RunMetrics {
	s := &e.stats
	m := &trace.RunMetrics{
		RunID:                runID,
		Total:                total,
		Phases:               e.phases,
		Steps:                s.Steps,
		Backtracks:           s.Backtracks,
		CandidatesTried:      s.CandidatesTried,
		CandidateCacheHits:   s.CacheHits,
		CandidateCacheMisses: s.CacheMisses,
		SigmaComponents:      e.components,
		PortfolioWorkers:     e.opts.Parallel,
		WinnerWorker:         s.WinnerWorker,
		WinnerStrategy:       s.WinnerStrategy,
		Canceled:             errors.Is(err, ErrCanceled),
		Accuracy:             -1, // no published relation
	}
	if out != nil {
		// The phases counted the ★s as they wrote them; accuracy follows
		// from the count exactly as metrics.Accuracy computes it.
		m.SuppressedCells = e.stars
		m.Accuracy = 1
		if cells := out.Len() * len(out.Schema().QIIndexes()); cells > 0 {
			m.Accuracy = 1 - float64(m.SuppressedCells)/float64(cells)
		}
	}
	return m
}

// runEndEvent is a run's terminal event: its metrics, its outcome as
// RunOutcome classifies err, and the error text of a failed run.
func runEndEvent(m *trace.RunMetrics, err error) trace.Event {
	ev := trace.Event{Kind: trace.KindRunEnd, Label: RunOutcome(err), Elapsed: m.Total, Metrics: m}
	if err != nil {
		ev.Err = err.Error()
	}
	return ev
}

// acceptRest reports whether a diverse clustering covering used rows leaves
// a rest Rk the baseline can k-anonymize: none at all, or at least K rows.
// It is the joint search's Accept hook and the check a component-wise
// coloring must pass.
func (e *runEnv) acceptRest(used int) bool {
	rest := e.rel.Len() - used
	return rest == 0 || rest >= e.opts.K
}

// colorJoint colors the joint graph: one search on the run's Rng, or the
// strategy portfolio when Options.Parallel > 0, under the acceptRest hook.
// A graph without nodes — Σ = ∅, or only constraints on non-QI targets —
// has the empty clustering as its coloring, so SΣ = ∅ and R′ = Rk. It is
// returned without a search, which would draw from the Rng the baseline
// partitioner may share; acceptRest holds for it, since |R| ≥ K was checked
// up front.
func (e *runEnv) colorJoint(ctx context.Context, graph *search.Graph) (cluster.Clustering, error) {
	if len(graph.Nodes) == 0 {
		return nil, nil
	}
	opts := e.opts
	searchOpts := search.Options{
		Strategy: opts.Strategy,
		Rng:      opts.Rng,
		MaxSteps: opts.MaxSteps,
		Ctx:      ctx,
		Tracer:   e.tr,
		Accept:   e.acceptRest,
	}
	var sigmaClustering cluster.Clustering
	var found bool
	if opts.Parallel > 0 {
		sigmaClustering, e.stats, found = graph.ColorPortfolio(searchOpts, opts.Parallel, opts.Rng.Uint64())
	} else {
		sigmaClustering, e.stats, found = graph.Color(searchOpts)
	}
	if st := &e.stats; !found {
		if st.Err != nil {
			return nil, fmt.Errorf("diva: coloring interrupted after %d steps (%d backtracks): %w", st.Steps, st.Backtracks, st.Err)
		}
		return nil, fmt.Errorf("diva: coloring failed after %d steps (%d backtracks): %w", st.Steps, st.Backtracks, ErrNoDiverseClustering)
	}
	return sigmaClustering, nil
}

// suppressPhase runs the suppress phase: render RΣ from the diverse
// clustering into the first rows of out, a relation extended to all of R′
// (the baseline phase renders Rk into the rest), and compute the complement
// row set Rk will anonymize.
func (e *runEnv) suppressPhase(sigmaClustering cluster.Clustering) (*relation.Relation, []int, error) {
	var out *relation.Relation
	var rest []int
	n := e.rel.Len()
	err := e.phase(trace.PhaseSuppress, func(context.Context) error {
		out = e.rel.Derive()
		out.Extend(n)
		e.stars += suppressInto(out, 0, e.rel, sigmaClustering, e.opts.Hierarchies, e.opts.Parallelism)
		used := sigmaClustering.RowSet(n)
		rest = make([]int, 0, n-used.Len())
		for i := 0; i < n; i++ {
			if !used.Contains(i) {
				rest = append(rest, i)
			}
		}
		return nil
	})
	return out, rest, err
}

// integrateVerify runs the integrate and verify phases over R′ = out, whose
// first d rows are RΣ and whose remaining rows are Rk, and assembles the
// Result (finish() adds Stats and Metrics). Integrate repairs Rk through a
// view, so its suppressions land in R′ directly.
func (e *runEnv) integrateVerify(out *relation.Relation, d int, sigmaClustering cluster.Clustering) (*Result, error) {
	diverse, restRel := out.Slice(0, d), out.Slice(d, out.Len())
	var repaired int
	err := e.phase(trace.PhaseIntegrate, func(context.Context) error {
		var err error
		repaired, err = integrate(out, restRel, e.bounds, e.schema, e.opts.Parallelism)
		e.stars += repaired
		return err
	})
	if err != nil {
		return nil, err
	}
	err = e.phase(trace.PhaseVerify, func(context.Context) error {
		if e.opts.Criterion != nil {
			if ok, group := privacy.Satisfies(out, e.opts.Criterion); !ok {
				return fmt.Errorf("diva: output QI-group of %d tuples violates %s: %w", len(group), e.opts.Criterion.Name(), ErrNoDiverseClustering)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Output:        out,
		Diverse:       diverse,
		Rest:          restRel,
		Clustering:    sigmaClustering,
		RepairedCells: repaired,
	}, nil
}

// Suppress is Algorithm 2: for every cluster, every QI attribute on which
// the cluster disagrees is suppressed in all of the cluster's tuples, so
// each cluster becomes a QI-group. Identifier attributes are always
// suppressed. Sensitive attributes are kept verbatim. The output relation
// shares the input's dictionaries; its rows follow cluster order.
func Suppress(rel *relation.Relation, clusters [][]int) *relation.Relation {
	return SuppressGeneralize(rel, clusters, nil)
}

// integrate verifies R′ = RΣ ∪ Rk against every constraint and repairs upper-
// bound violations by suppressing target QI attributes across whole
// QI-groups of Rk (so k-anonymity is preserved), choosing groups with the
// most removable occurrences per suppressed cell first. It returns the
// number of cells suppressed. Lower bounds cannot be violated at this
// point: RΣ alone preserves at least λl occurrences of every searchable
// constraint and repairs only ever remove occurrences contributed by Rk.
// Rk-only repair always suffices when the coloring accepted the clustering:
// the search's consistency check (Section 3.2, condition 2) guarantees RΣ
// alone never exceeds an upper bound, so the excess is at most Rk's
// contribution. That same check makes the engine deliberately conservative —
// a cluster preserving one constraint's target may not overflow another's
// upper bound even where post-hoc suppression could repair it; see
// "Completeness envelope" in internal/verify for the differential-test
// contract this implies.
//
// out is R′ and rest its Rk view. One constraint.Counts pass over R′
// counts every constraint's occurrences, and after each repairing
// constraint one more pass recounts the constraints after it, so every
// constraint sees the earlier repairs.
func integrate(out, rest *relation.Relation, bounds []*constraint.Bound, schema *relation.Schema, parallelism int) (int, error) {
	repaired := 0
	total := constraint.Counts(out, bounds, parallelism)
	for i, b := range bounds {
		if total[i] <= b.Upper {
			continue
		}
		excess := total[i] - b.Upper
		// Pick a QI target attribute to break. Constraints without QI
		// target attributes were validated up front and cannot appear here.
		breakAttr := -1
		for _, a := range b.Attrs {
			if schema.Attr(a).Role == relation.QI {
				breakAttr = a
				break
			}
		}
		if breakAttr < 0 {
			return repaired, fmt.Errorf("diva: integrate: constraint (%s) exceeded by %d occurrences but has no suppressible target attribute: %w", b, excess, ErrNoDiverseClustering)
		}
		// Rank Rk QI-groups by occurrences removed per suppressed cell.
		type candidate struct {
			group   []int
			matches int
		}
		var cands []candidate
		for _, g := range rest.QIGroups() {
			m := 0
			for _, row := range g {
				if b.Matches(rest.Row(row)) {
					m++
				}
			}
			if m > 0 {
				cands = append(cands, candidate{group: g, matches: m})
			}
		}
		slices.SortStableFunc(cands, func(x, y candidate) int {
			rx := float64(x.matches) / float64(len(x.group))
			ry := float64(y.matches) / float64(len(y.group))
			if c := cmp.Compare(ry, rx); c != 0 {
				return c
			}
			return cmp.Compare(y.matches, x.matches)
		})
		for _, c := range cands {
			if excess <= 0 {
				break
			}
			for _, row := range c.group {
				if !rest.IsSuppressed(row, breakAttr) {
					rest.Suppress(row, breakAttr)
					repaired++
				}
			}
			excess -= c.matches
		}
		if excess > 0 {
			return repaired, fmt.Errorf("diva: integrate: could not repair upper bound of (%s): %w", b, ErrNoDiverseClustering)
		}
		copy(total[i+1:], constraint.Counts(out, bounds[i+1:], parallelism))
	}
	return repaired, nil
}

// Verify checks the three output conditions of Definition 2.4 on a result:
// R ⊑ R′ (up to reordering), k-anonymity, and R′ |= Σ — plus, when the
// result carries RunMetrics, exact suppressed-cell accounting. It delegates
// to verify.ValidateOutput, the engine-independent invariant checker, and is
// used by tests and the CLI's --verify flag; it is O(n²) in the worst case
// because of the suppression matching and is not meant for hot paths.
// Results produced with Options.Hierarchies fail the R ⊑ R′ check by design
// (generalized cells hold ancestors, not the original value or ★); verify
// those with verify.Options.SkipContainment, or with metrics.IsKAnonymous
// and Set.SatisfiedBy directly.
func Verify(orig *relation.Relation, res *Result, sigma constraint.Set, k int) error {
	opts := verify.Options{}
	if res.Metrics != nil {
		opts.CheckStars = true
		opts.Stars = res.Metrics.SuppressedCells
	}
	return verify.ValidateOutput(orig, res.Output, sigma, k, opts).Err()
}
