// Package diva is a Go implementation of DIVA, the DIVersity-driven
// Anonymization algorithm of Milani, Huang and Chiang ("Preserving Diversity
// in Anonymized Data", EDBT 2021). It publishes k-anonymous relations that
// additionally satisfy declarative diversity constraints — lower and upper
// bounds on how often characteristic attribute values must appear in the
// published data — using value suppression with minimal information loss.
//
// The package also ships three classical k-anonymization baselines
// (k-member, OKA, Mondrian), the evaluation metrics of the paper
// (suppression loss, discernibility, accuracy, conflict rate), constraint
// workload generators, and synthetic dataset generators mirroring the
// paper's evaluation datasets.
//
// # Quick start
//
//	rel, _ := diva.ReadAnnotatedCSV(file)        // header: NAME:role[:kind]
//	sigma := diva.Constraints{
//		diva.NewConstraint("ETH", "Asian", 2, 5),
//		diva.NewConstraint("CTY", "Vancouver", 2, 4),
//	}
//	res, err := diva.AnonymizeContext(ctx, rel, sigma, diva.Options{
//		K:        3,
//		Strategy: diva.MaxFanOut,
//		Seed:     42,
//	})
//	if err != nil { ... }
//	diva.WriteCSV(os.Stdout, res.Output)
//
// # Cancellation and observability
//
// AnonymizeContext is the primary entry point: the context cancels the run
// at search-step granularity (the coloring) and split granularity (the
// baseline partitioners), returning an error wrapping both ErrCanceled and
// the context's own error; the Result returned alongside it is non-nil and
// carries the partial RunMetrics.
//
// # Baseline partitioners
//
// Tuples outside the diverse clustering are k-anonymized by a baseline
// partitioner. The default is parallel Mondrian (deterministic output at
// any Options.Parallelism); Options.Baseline selects k-member or OKA
// instead, and Options.Anonymizer accepts any Partitioner implementation:
//
//	p, _ := diva.NewBaseline(diva.KMember)       // a built-in to decorate
//	res, err := diva.AnonymizeContext(ctx, rel, sigma, diva.Options{
//		K:          3,
//		Anonymizer: myDecorator{p},              // overrides Baseline
//	})
//
// Set Options.Tracer to observe a run: phase boundaries (bind, build-graph,
// color, suppress, baseline, integrate, verify), per-node assign/backtrack
// events, candidate-cache hits and the portfolio's winning worker stream as
// typed Events, and the run ends with a KindRunEnd event carrying
// Result.Metrics. NewWriterTracer renders them as text; any Tracer
// implementation works. Whether or not a tracer is set, every Result
// carries RunMetrics (per-phase wall times, step/backtrack counts, cache
// statistics) and each phase runs under a runtime/pprof "diva_phase"
// label. Process-wide totals are Prometheus metrics (internal/obs), served
// at /metrics by cmd/diva -listen.
package diva

import (
	"context"
	"io"
	"math/rand/v2"
	"strings"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/hierarchy"
	"diva/internal/history"
	"diva/internal/metrics"
	"diva/internal/privacy"
	"diva/internal/profile"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
	"diva/internal/verify"
)

// Re-exported relational substrate types. See the internal/relation package
// for full documentation.
type (
	// Relation is a dictionary-encoded tuple store over a fixed schema.
	Relation = relation.Relation
	// Schema is an ordered list of attributes with privacy roles.
	Schema = relation.Schema
	// Attribute describes one column: name, role and kind.
	Attribute = relation.Attribute
	// Role classifies an attribute as QI, Sensitive or Identifier.
	Role = relation.Role
	// Kind classifies an attribute domain as Categorical or Numeric.
	Kind = relation.Kind
)

// Attribute roles and kinds.
const (
	QI          = relation.QI
	Sensitive   = relation.Sensitive
	Identifier  = relation.Identifier
	Categorical = relation.Categorical
	Numeric     = relation.Numeric
)

// Star is the textual rendering of the suppression marker ★.
const Star = relation.Star

// Hierarchy is a value generalization hierarchy for one attribute; see
// NewIntervalHierarchy and ParseHierarchy.
type Hierarchy = hierarchy.Hierarchy

// Hierarchies maps attribute names to their generalization hierarchies.
type Hierarchies = hierarchy.Set

// Constraint is a diversity constraint σ = (X[t], λl, λr).
type Constraint = constraint.Constraint

// Constraints is a set of diversity constraints Σ.
type Constraints = constraint.Set

// Result carries a DIVA run's output relation and diagnostics.
type Result = core.Result

// Strategy selects DIVA's coloring node order.
type Strategy = search.Strategy

// Node-selection strategies for the diverse-clustering search.
const (
	// Basic picks random nodes (DIVA-Basic).
	Basic = search.Basic
	// MinChoice picks the most constrained node first.
	MinChoice = search.MinChoice
	// MaxFanOut picks the node with the most uncolored neighbors first.
	MaxFanOut = search.MaxFanOut
)

// ShardsAuto, set on Options.Shards, turns the component-wise engine on
// when GOMAXPROCS and the relation size allow; small relations run
// monolithically.
const ShardsAuto = core.ShardsAuto

// ErrNoDiverseClustering is returned when no k-anonymous relation satisfying
// the constraints exists (or none was found within the search budget).
var ErrNoDiverseClustering = core.ErrNoDiverseClustering

// ErrCanceled is returned (wrapped, alongside the context's own error) when
// a run is stopped by context cancellation or deadline expiry. The Result
// returned with it is non-nil and carries the partial RunMetrics.
var ErrCanceled = core.ErrCanceled

// Observability types, re-exported from the tracing layer. A Tracer set on
// Options receives every Event of a run; RunMetrics is the aggregated
// per-run summary attached to Result.Metrics.
type (
	// Tracer observes run events; implementations must be cheap, and must
	// be safe for concurrent use only if shared across concurrent runs.
	Tracer = trace.Tracer
	// Event is one traced occurrence: a phase boundary, a search step or a
	// portfolio outcome.
	Event = trace.Event
	// EventKind discriminates Event payloads.
	EventKind = trace.EventKind
	// Phase names one stage of a run.
	Phase = trace.Phase
	// RunMetrics aggregates one run's timings and counters.
	RunMetrics = trace.RunMetrics
	// PhaseTiming is one phase's measured wall time.
	PhaseTiming = trace.PhaseTiming
	// Recorder is a goroutine-safe Tracer keeping the RunMetrics of a
	// run's KindRunEnd event.
	Recorder = trace.Recorder
)

// Event kinds.
const (
	KindPhaseStart = trace.KindPhaseStart
	KindPhaseEnd   = trace.KindPhaseEnd
	KindAssign     = trace.KindAssign
	KindBacktrack  = trace.KindBacktrack
	KindCandidates = trace.KindCandidates
	KindCacheHit   = trace.KindCacheHit
	KindWorkerWin  = trace.KindWorkerWin
	// KindProgress is the search's liveness heartbeat: cumulative
	// step/backtrack counters, coloring depth and the emitting portfolio
	// worker, sent every few hundred steps and once at search end. In
	// portfolio mode heartbeats reach the Tracer concurrently from every
	// worker; handle at least this kind in a goroutine-safe way.
	KindProgress = trace.KindProgress
	// KindSplit reports one recursive cut of the baseline partitioner:
	// the cut attribute (Label, "" for a leaf), partition size (N),
	// recursion depth and cut wall time. The engine serializes these before
	// they reach a Tracer, even when Mondrian runs parallel.
	KindSplit = trace.KindSplit
	// KindShard announces one Σ connected component of a component-wise
	// run (Label "component": Node is the component index, N its QI-pool
	// size, Depth its constraint count). Emitted sequentially by the
	// coordinator; see Options.Shards.
	KindShard = trace.KindShard
	// KindRunEnd is every run's last event: Metrics carries Result.Metrics,
	// Label the outcome (RunOutcome), Elapsed the wall time and Err a failed
	// run's error text.
	KindRunEnd = trace.KindRunEnd
)

// Run phases, in execution order.
const (
	PhaseBind       = trace.PhaseBind
	PhaseBuildGraph = trace.PhaseBuildGraph
	PhaseColor      = trace.PhaseColor
	PhaseSuppress   = trace.PhaseSuppress
	PhaseBaseline   = trace.PhaseBaseline
	PhaseIntegrate  = trace.PhaseIntegrate
	PhaseVerify     = trace.PhaseVerify
)

// NewWriterTracer returns a Tracer that renders phase boundaries and
// portfolio outcomes as human-readable lines on w.
func NewWriterTracer(w io.Writer) Tracer { return trace.NewWriter(w) }

// Search profiling, re-exported from the profile layer. A Profiler is a
// Tracer that reconstructs the coloring search tree live; set it on
// Options.Tracer (trace.Tee it with other tracers as needed), then call
// Profile once the run ends; the run's KindRunEnd event gives the profile
// its metrics, outcome and error. The resulting Profile exports Chrome
// trace-event JSON (Perfetto), pprof-style folded stacks, a text summary,
// and the infeasibility Explanation — see `diva -profile` and `diva
// -explain`.
type (
	// Profiler reconstructs the search tree from a run's event stream.
	Profiler = profile.Profiler
	// SearchProfile is a finalized per-run search profile.
	SearchProfile = profile.Profile
	// Explanation attributes a coloring failure to concrete constraints.
	Explanation = profile.Explanation
)

// NewProfiler returns an empty search Profiler.
func NewProfiler() *Profiler { return profile.New() }

// Run history, re-exported from the history layer. With Options.HistoryDir
// (or DIVA_HISTORY_DIR) set, every run appends one HistoryRecord — config
// and dataset fingerprints, outcome, full RunMetrics — to a durable,
// size-rotated JSONL ledger that LoadHistory reads back and CompareHistory
// judges with a noise-aware regression verdict. The `divahist` CLI and the
// obs server's /debug/diva/history endpoints are thin layers over these.
type (
	// HistoryRecord is one ledgered run.
	HistoryRecord = history.Record
	// HistoryConfig is the engine/config fingerprint part of a record.
	HistoryConfig = history.Config
	// HistoryDataset is the input-relation fingerprint part of a record.
	HistoryDataset = history.Dataset
	// HistoryReport is the outcome of CompareHistory: per-phase deltas with
	// noise-floor verdicts.
	HistoryReport = history.Report
	// HistoryThresholds tunes the regression noise floor.
	HistoryThresholds = history.Thresholds
)

// LoadHistory reads the run ledger rooted at dir back into records (append
// order), tolerating a torn tail. A missing directory loads as empty.
func LoadHistory(dir string) ([]*HistoryRecord, error) {
	loaded, err := history.Load(dir)
	if err != nil {
		return nil, err
	}
	return loaded.Records, nil
}

// CompareHistory judges new runs against old ones phase by phase; deltas
// within the noise floor (median-absolute-deviation based, see
// HistoryThresholds) are verdicted as noise rather than regressions. A zero
// Thresholds applies the defaults (15% relative, 3×MAD, 5ms absolute).
func CompareHistory(old, new []*HistoryRecord, t HistoryThresholds) *HistoryReport {
	return history.Compare(old, new, t)
}

// RunOutcome classifies an AnonymizeContext error — of any run, a
// baseline-only one (empty Σ) included — for dashboards and the run-end
// event's Label: "ok", "canceled", "infeasible" or "error".
func RunOutcome(err error) string { return core.RunOutcome(err) }

// NewRecorder returns a Recorder. Fed to Options.Tracer, it keeps a copy of
// the metrics of the run's terminal KindRunEnd event, so its Snapshot equals
// Result.Metrics.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// NewSchema builds a schema from attributes; names must be unique.
func NewSchema(attrs ...Attribute) (*Schema, error) { return relation.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema { return relation.MustSchema(attrs...) }

// NewRelation returns an empty relation over schema.
func NewRelation(schema *Schema) *Relation { return relation.New(schema) }

// ReadCSV loads a relation from CSV whose header matches schema's attribute
// names.
func ReadCSV(r io.Reader, schema *Schema) (*Relation, error) { return relation.ReadCSV(r, schema) }

// ReadAnnotatedCSV loads a relation from CSV whose header carries
// "name:role[:kind]" annotations. An input cell "*" is an already-suppressed
// ★, so a published relation loads back unchanged.
func ReadAnnotatedCSV(r io.Reader) (*Relation, error) { return relation.ReadAnnotatedCSV(r) }

// WriteCSV writes a relation as CSV with a plain header.
func WriteCSV(w io.Writer, rel *Relation) error { return relation.WriteCSV(w, rel) }

// NewConstraint returns a single-attribute diversity constraint
// (attr[value], lower, upper).
func NewConstraint(attr, value string, lower, upper int) Constraint {
	return constraint.New(attr, value, lower, upper)
}

// NewMultiConstraint returns a multi-attribute diversity constraint over
// parallel attrs and values.
func NewMultiConstraint(attrs, values []string, lower, upper int) Constraint {
	return constraint.NewMulti(attrs, values, lower, upper)
}

// ParseConstraint parses "ATTR[value], lower, upper" (optionally several
// ATTR[value] terms).
func ParseConstraint(line string) (Constraint, error) { return constraint.Parse(line) }

// ParseConstraints reads one constraint per line; '#' starts a comment.
func ParseConstraints(r io.Reader) (Constraints, error) { return constraint.ParseSet(r) }

// Partitioner is the pluggable baseline contract: it groups rows of a
// relation into clusters of at least k members, which the engine then
// renders k-anonymous by suppression. Set one on Options.Anonymizer to
// replace the built-in baselines entirely, or wrap the result of
// NewBaseline to decorate a built-in (caching, logging, fallback chains).
// Implementations must honor the documented contract: an error when
// 0 < len(rows) < k, an empty partition for no rows, prompt return of
// ctx.Err() after cancellation, and tolerance of a nil ctx.
type Partitioner = anon.Partitioner

// Baseline selects an off-the-shelf k-anonymization algorithm. The type is
// string-backed so existing code assigning string literals ("oka") keeps
// compiling; prefer the typed constants, and use ParseBaseline for
// user-supplied spellings. The enum is sugar over the Partitioner
// interface: NewBaseline turns a Baseline into the Partitioner the engine
// would construct for it.
type Baseline string

// The supported baseline algorithms.
const (
	// KMember is the greedy k-member clustering of Byun et al. — the
	// paper's quality-sensitive choice, served by a signature index.
	KMember Baseline = "k-member"
	// OKA is the one-pass k-means algorithm of Lin and Wei.
	OKA Baseline = "oka"
	// Mondrian is the multidimensional median partitioning of LeFevre et
	// al. (default), parallelized across Options.Parallelism workers.
	Mondrian Baseline = "mondrian"
)

// String returns the canonical spelling; the zero value reads as Mondrian.
func (b Baseline) String() string {
	if b == "" {
		return string(Mondrian)
	}
	return string(b)
}

// ParseBaseline maps a user-supplied name to a Baseline. It accepts the
// canonical spellings, legacy variants ("kmember", "Mondrian", "OKA") and
// any case; the empty string parses as Mondrian, the default.
func ParseBaseline(s string) (Baseline, error) {
	switch strings.ToLower(s) {
	case "", "mondrian":
		return Mondrian, nil
	case "k-member", "kmember":
		return KMember, nil
	case "oka":
		return OKA, nil
	}
	return "", &UnknownBaselineError{Name: s}
}

// NewBaseline returns the Partitioner the engine constructs for b with
// default options: parallel Mondrian at GOMAXPROCS, k-member, or OKA, each
// seeded deterministically from Seed 0. Callers who need a different seed,
// parallelism or privacy criterion should construct via Options (whose
// Baseline field goes through the same path) or supply their own
// Partitioner on Options.Anonymizer. The returned Partitioner is ready to
// compose: wrap it and set the wrapper on Options.Anonymizer.
func NewBaseline(b Baseline) (Partitioner, error) {
	o := Options{Baseline: b}
	return o.newPartitioner(o.rng(), nil)
}

// Options configures Anonymize.
type Options struct {
	// K is the privacy parameter: minimum QI-group size. Required, ≥ 1.
	K int
	// Strategy is the coloring node order; the zero value is Basic. The
	// paper's best-performing strategy is MaxFanOut.
	Strategy Strategy
	// Seed makes the run reproducible. Two runs with equal inputs and
	// seeds produce identical outputs.
	Seed uint64
	// MaxCandidates caps candidate clusterings per constraint (0 = 64).
	MaxCandidates int
	// MaxSteps caps coloring search steps (0 = 1,000,000).
	MaxSteps int
	// Baseline selects the off-the-shelf anonymizer for tuples outside the
	// diverse clustering: Mondrian (default), KMember or OKA. String
	// literals still assign (the type is string-backed); ParseBaseline
	// normalizes legacy spellings. Ignored when Anonymizer is non-nil.
	Baseline Baseline
	// Anonymizer, when non-nil, replaces the Baseline enum with a caller-
	// supplied Partitioner for the tuples outside the diverse clustering.
	// The partitioner must enforce any privacy criterion itself (the engine
	// re-verifies the final output regardless); Parallelism and LDiversity
	// do not reach it. Partitioners implementing the anon package's
	// TraceSink receive the run's tracer before the baseline phase.
	Anonymizer Partitioner
	// Parallelism bounds the worker goroutines of every data-parallel pass
	// of a run: the Mondrian baseline, the component fan-out (Shards), and
	// the engine's row passes (rendering the output, building candidate
	// enumerators, scanning R for every constraint's pool and count), which
	// split into row ranges once they are large enough. 0 means GOMAXPROCS,
	// 1 runs everything on the calling goroutine. The output is
	// byte-identical at every setting. It has no effect on the other
	// baselines or on a caller-supplied Anonymizer.
	Parallelism int
	// LDiversity, when ≥ 2, additionally requires distinct l-diversity:
	// every QI-group of the output must carry at least LDiversity distinct
	// values of every sensitive attribute.
	LDiversity int
	// Parallel, when > 0, runs that many concurrent coloring searches (a
	// strategy portfolio) and takes the first result.
	Parallel int
	// Shards enables the component-wise engine for large relations: the
	// constraint set is decomposed into independent connected components
	// colored concurrently, Parallelism bounding the fan-out. The remaining
	// tuples go to the partitioner in one call, as with Shards 0. 0
	// disables it, ShardsAuto (-1) turns it on when GOMAXPROCS and the
	// relation size allow, and any value ≥ 2 turns it on; every such value
	// gives the same output, deterministic for a fixed seed. When the
	// components' colorings leave fewer than K rest tuples, Σ is colored
	// again as one joint graph, as with Shards 0. Sharded runs ignore
	// Parallel.
	Shards int
	// Hierarchies, when non-nil, renders clusters by generalization: cells
	// a cluster disagrees on lift to the least common ancestor of its
	// values ("[30-39]") instead of ★. Attributes without a hierarchy fall
	// back to suppression. Note Verify rejects generalized outputs (the
	// strict R ⊑ R′ relation holds only under suppression); check them
	// with IsKAnonymous, Constraints.SatisfiedBy and NCP instead.
	Hierarchies Hierarchies
	// Tracer, when non-nil, receives the run's Events: phase boundaries,
	// per-node search steps and portfolio outcomes, and last a KindRunEnd
	// carrying Result.Metrics. Run metrics are collected on Result.Metrics
	// whether or not a Tracer is set.
	Tracer Tracer
	// HistoryDir, when non-empty, appends one HistoryRecord per run (every
	// outcome) to the durable run ledger rooted in that directory — the
	// persistence spine behind `divahist` and /debug/diva/history. Empty
	// falls back to the DIVA_HISTORY_DIR environment variable; when both are
	// empty the ledger is off. Ledger failures never fail the run.
	HistoryDir string
}

func (o Options) rng() *rand.Rand {
	return rand.New(rand.NewPCG(o.Seed, o.Seed^0xda3e39cb94b95bdb))
}

func (o Options) criterion() privacy.Criterion {
	if o.LDiversity >= 2 {
		return privacy.DistinctLDiversity{L: o.LDiversity}
	}
	return nil
}

// newPartitioner is the single construction point for baseline
// partitioners, shared by AnonymizeContext and NewBaseline so the paths
// cannot diverge on criterion handling: every
// baseline receives the privacy criterion, and OKA — which cannot enforce
// one — is rejected with UnsupportedBaselineError rather than silently
// weakened.
func (o Options) newPartitioner(rng *rand.Rand, crit privacy.Criterion) (anon.Partitioner, error) {
	b, err := ParseBaseline(string(o.Baseline))
	if err != nil {
		return nil, err
	}
	switch b {
	case KMember:
		return &anon.KMember{Rng: rng, Criterion: crit}, nil
	case Mondrian:
		return &anon.Mondrian{Criterion: crit, Parallelism: o.Parallelism}, nil
	case OKA:
		if crit != nil {
			return nil, &UnsupportedBaselineError{Baseline: OKA, Reason: "OKA cannot enforce l-diversity; use k-member or mondrian"}
		}
		return &anon.OKA{Rng: rng}, nil
	}
	return nil, &UnknownBaselineError{Name: string(o.Baseline)}
}

// AnonymizeContext runs DIVA under ctx: it returns a k-anonymous relation
// R′ with R ⊑ R′ satisfying every constraint in sigma, with minimal
// suppression. It returns an error wrapping ErrNoDiverseClustering when no
// such relation exists, and one wrapping ErrCanceled (and the context's
// error) when ctx is canceled or its deadline expires. On every outcome —
// success, ErrNoDiverseClustering or ErrCanceled — the returned Result is
// non-nil and carries the run's Metrics; on error its relations are nil.
//
// With an empty sigma the run is the Baseline (or Anonymizer) alone over
// the whole relation — the classical k-anonymization the paper compares
// DIVA against — and Result.Output is its suppressed, k-anonymous
// rendering. Options.LDiversity applies as on any run: the partitioner
// enforces it, and OKA, which cannot, is rejected.
func AnonymizeContext(ctx context.Context, rel *Relation, sigma Constraints, opts Options) (*Result, error) {
	rng := opts.rng()
	crit := opts.criterion()
	p := opts.Anonymizer
	if p == nil {
		var err error
		p, err = opts.newPartitioner(rng, crit)
		if err != nil {
			return nil, err
		}
	}
	return core.Anonymize(ctx, rel, sigma, core.Options{
		K:           opts.K,
		Strategy:    opts.Strategy,
		Rng:         rng,
		Cluster:     cluster.Options{MaxCandidates: opts.MaxCandidates},
		MaxSteps:    opts.MaxSteps,
		Anonymizer:  p,
		Parallelism: opts.Parallelism,
		Criterion:   crit,
		Parallel:    opts.Parallel,
		Shards:      opts.Shards,
		Hierarchies: opts.Hierarchies,
		Tracer:      opts.Tracer,
		HistoryDir:  opts.HistoryDir,
	})
}

// NewIntervalHierarchy builds a numeric generalization hierarchy over
// [lo, hi]: level ℓ groups values into intervals of width base^ℓ, topped by
// ★. See the hierarchy package for details.
func NewIntervalHierarchy(attr string, lo, hi, base, levels int) (*Hierarchy, error) {
	return hierarchy.Intervals(attr, lo, hi, base, levels)
}

// ParseHierarchy reads a categorical hierarchy from "child -> parent" lines
// ('#' comments, ★ or "*" as the root).
func ParseHierarchy(attr, text string) (*Hierarchy, error) {
	return hierarchy.ParseTable(attr, text)
}

// NCP returns the normalized certainty penalty of rel under the given
// hierarchies: the mean per-cell generalization loss over QI cells, in
// [0, 1]. Without hierarchies it equals 1 − Accuracy.
func NCP(rel *Relation, hs Hierarchies) float64 { return hierarchy.NCP(rel, hs) }

// IsLDiverse reports whether every QI-group of rel carries at least l
// distinct values of every sensitive attribute (distinct l-diversity).
func IsLDiverse(rel *Relation, l int) bool {
	ok, _ := privacy.Satisfies(rel, privacy.DistinctLDiversity{L: l})
	return ok
}

// UnknownBaselineError reports an unrecognized baseline name.
type UnknownBaselineError struct{ Name string }

func (e *UnknownBaselineError) Error() string {
	return "diva: unknown baseline algorithm " + e.Name + ` (want "k-member", "oka" or "mondrian")`
}

// UnsupportedBaselineError reports a recognized baseline that cannot run
// under the requested options (for example OKA with an l-diversity
// criterion, which its one-pass structure cannot enforce).
type UnsupportedBaselineError struct {
	// Baseline is the recognized-but-rejected algorithm.
	Baseline Baseline
	// Reason explains the incompatibility.
	Reason string
}

func (e *UnsupportedBaselineError) Error() string {
	return "diva: baseline " + string(e.Baseline) + " unsupported under these options: " + e.Reason
}

// Verify checks that res is a valid (k, Σ)-anonymization of orig: R ⊑ R′
// up to reordering, k-anonymity, and R′ |= Σ — plus exact suppressed-cell
// accounting when res carries RunMetrics. For the full report (every
// violation, not just the first) use ValidateOutput.
func Verify(orig *Relation, res *Result, sigma Constraints, k int) error {
	return core.Verify(orig, res, sigma, k)
}

// ValidationReport is the outcome of ValidateOutput: every violated
// invariant, plus the measured suppressed-cell and QI-group counts. See the
// internal verify package for the full documentation.
type ValidationReport = verify.Report

// ValidationViolation is one broken invariant in a ValidationReport.
type ValidationViolation = verify.Violation

// ValidateOptions configures ValidateOutput.
type ValidateOptions struct {
	// LDiversity, when ≥ 2, additionally requires distinct l-diversity on
	// every QI-group of the output.
	LDiversity int
	// SkipContainment skips the strict R ⊑ R′ check. Outputs rendered with
	// generalization hierarchies hold ancestor labels instead of original
	// values or ★, so they fail strict containment by design; skip it for
	// those and rely on the remaining checks.
	SkipContainment bool
	// CheckStars, when true, requires the output's measured suppressed-QI-
	// cell count to equal Stars.
	CheckStars bool
	// Stars is the claimed suppressed-cell count checked under CheckStars.
	Stars int
}

// ValidateOutput runs the engine-independent invariant checker on a
// published relation: cardinality and schema preservation, R ⊑ R′ (cells
// change only to ★, up to tuple reordering), k-anonymity of every QI-group,
// satisfaction of every constraint's [λl, λr] bounds, optional distinct
// l-diversity, and suppression accounting. It reports every violation found
// rather than stopping at the first, which is what `diva -verify` prints
// and what the differential test harness asserts on.
func ValidateOutput(orig, out *Relation, sigma Constraints, k int, opts ValidateOptions) *ValidationReport {
	vo := verify.Options{
		SkipContainment: opts.SkipContainment,
		CheckStars:      opts.CheckStars,
		Stars:           opts.Stars,
	}
	if opts.LDiversity >= 2 {
		vo.Criterion = privacy.DistinctLDiversity{L: opts.LDiversity}
	}
	return verify.ValidateOutput(orig, out, sigma, k, vo)
}

// IsKAnonymous reports whether every tuple lies in a QI-group of ≥ k tuples.
func IsKAnonymous(rel *Relation, k int) bool { return metrics.IsKAnonymous(rel, k) }

// SuppressionLoss returns the number of suppressed QI cells (★s).
func SuppressionLoss(rel *Relation) int { return metrics.SuppressionLoss(rel) }

// Accuracy returns the fraction of QI cells preserved, in [0, 1].
func Accuracy(rel *Relation) float64 { return metrics.Accuracy(rel) }

// Discernibility returns the Bayardo–Agrawal discernibility penalty.
func Discernibility(rel *Relation, k int) int { return metrics.Discernibility(rel, k) }

// ConflictRate returns cf(Σ) over rel: the mean pairwise target-tuple
// overlap of the constraints, in [0, 1].
func ConflictRate(rel *Relation, sigma Constraints) (float64, error) {
	bounds, err := sigma.Bind(rel)
	if err != nil {
		return 0, err
	}
	return constraint.SetConflict(rel, bounds), nil
}
