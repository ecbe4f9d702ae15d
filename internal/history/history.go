// Package history is the durable observability layer of the DIVA engine: a
// dependency-free, append-only run ledger that outlives the process. Every
// observability surface built before it — the trace recorder, the Prometheus
// registry, the search profiler — dies with the process; the ledger is what
// lets a later session ask "did this change make the coloring phase slower
// on census?" the way the paper's evaluation (fig. 4) compares runtimes
// across configurations rather than reading single points.
//
// One engine run appends one self-describing JSON record (one line — the
// file is JSONL) carrying the run's identity (engine/config fingerprint,
// dataset fingerprint), its outcome, and its full trace.RunMetrics including
// per-phase wall times. The file is size-rotated (one previous generation is
// kept), opened with O_APPEND behind a single-writer mutex, and reloads
// tolerate a corrupt tail — a crash mid-append costs at most the last
// record, never the ledger.
//
// On top of the ledger sit a query API (Load, Filter, Select — load.go) and
// a cross-run comparison (Compare — compare.go) whose per-phase deltas are
// gated by a median-absolute-deviation noise floor, so single-CPU scheduling
// jitter does not read as a performance regression. The obs package serves
// both over HTTP (/debug/diva/history) and cmd/divahist closes the loop with
// a CI regression gate.
package history

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/trace"
)

// EnvDir is the environment variable naming the ledger directory. The engine
// consults it when Options.HistoryDir is empty, so whole process trees
// (benchmarks, smoke tests, services) can be ledgered without plumbing.
const EnvDir = "DIVA_HISTORY_DIR"

// DefaultMaxBytes is the rotation threshold of the active ledger file: an
// append that would grow the file past it first rotates the file to the
// previous generation. ~8 MiB holds tens of thousands of records.
const DefaultMaxBytes = 8 << 20

// ledgerFile is the active ledger's name inside the directory; rotation
// renames it to ledgerFile+".1" (replacing the previous generation).
const ledgerFile = "ledger.jsonl"

// Config is the engine/configuration fingerprint of a run: every knob that
// changes what work the engine does. Two records with equal Config hashes
// (and equal Dataset hashes) are runs of the same experiment, which is the
// unit cross-run comparison operates on.
type Config struct {
	// K is the privacy parameter.
	K int `json:"k"`
	// Criterion names the additional privacy criterion ("distinct
	// 2-diversity"), empty when none.
	Criterion string `json:"criterion,omitempty"`
	// Strategy is the coloring node-selection strategy.
	Strategy string `json:"strategy,omitempty"`
	// Baseline names the rest-row partitioner (anon.Partitioner.Name()).
	Baseline string `json:"baseline,omitempty"`
	// Shards, Parallelism, Parallel and MaxSteps mirror the engine options
	// of the same names.
	Shards      int `json:"shards,omitempty"`
	Parallelism int `json:"parallelism,omitempty"`
	Parallel    int `json:"parallel,omitempty"`
	MaxSteps    int `json:"max_steps,omitempty"`
	// Nogoods is decode-only: the engine once had an optional
	// conflict-driven learning search, and only records written by it set
	// this field. Keys are recomputed on read (Record.Key), so keeping it in
	// the hash stops such an old record, a different experiment, from
	// joining the chronological runs in diff and gate. New runs never set it.
	Nogoods bool `json:"nogoods,omitempty"`
	// MaxCandidates is the per-constraint candidate budget, zero when it is
	// the engine default: a different budget enumerates different
	// candidates, so it is a different experiment.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Constraints is |Σ| and SigmaHash a stable fingerprint of the
	// constraint set (order-insensitive), so "same Σ" is comparable without
	// storing the workload itself.
	Constraints int    `json:"constraints"`
	SigmaHash   string `json:"sigma_hash,omitempty"`
	// Bench, when non-empty, marks a synthetic record derived from a
	// divabench table (the experiment ID) rather than a single engine run.
	Bench string `json:"bench,omitempty"`
}

// Hash returns the config's stable fingerprint (16 hex digits).
func (c Config) Hash() string {
	fp := newFingerprint().
		addInt(c.K).
		addString(c.Criterion).
		addString(c.Strategy).
		addString(c.Baseline).
		addInt(c.Shards).
		addInt(c.Parallelism).
		addInt(c.Parallel).
		addInt(c.MaxSteps).
		addInt(c.Constraints).
		addString(c.SigmaHash).
		addString(c.Bench)
	if c.Nogoods {
		// Folded in only when set, so chronological records hash as if the
		// field did not exist.
		fp.addString("nogoods")
	}
	if c.MaxCandidates != 0 {
		// Folded in only off the default, for the same reason.
		fp.addString("max_candidates").addInt(c.MaxCandidates)
	}
	return fp.String()
}

// Dataset is the input-relation fingerprint of a run: enough to tell "same
// data" apart from "same shape, different data" without storing the data.
type Dataset struct {
	// Rows and Columns are the relation's cardinality and arity.
	Rows    int `json:"rows"`
	Columns int `json:"columns"`
	// DictHash fingerprints the schema (names, roles, kinds) and every
	// attribute dictionary's value set in insertion order.
	DictHash string `json:"dict_hash,omitempty"`
}

// Hash returns the dataset's stable fingerprint (16 hex digits).
func (d Dataset) Hash() string {
	return newFingerprint().
		addInt(d.Rows).
		addInt(d.Columns).
		addString(d.DictHash).
		String()
}

// Record is one ledgered run: identity, outcome, and the run's full metrics.
type Record struct {
	// ID uniquely identifies the record across processes (assigned by Append
	// when empty: microsecond timestamp + per-process sequence).
	ID string `json:"id"`
	// Time is the record's creation time.
	Time time.Time `json:"time"`
	// RunID is the process-local run-registry identifier. It restarts at 1
	// in every process — use ID to name records, RunID to join against
	// /debug/diva/runs and profiles within one process.
	RunID uint64 `json:"run_id,omitempty"`
	// Outcome classifies the run: "ok", "infeasible", "canceled" or "error"
	// (core.RunOutcome).
	Outcome string `json:"outcome"`
	// Error carries the error text for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Config and Dataset are the run's comparison identity.
	Config  Config  `json:"config"`
	Dataset Dataset `json:"dataset"`
	// Metrics is the run's aggregated metrics: per-phase wall times, search
	// effort, suppression/accuracy. Non-nil for engine-deposited records.
	Metrics *trace.RunMetrics `json:"metrics,omitempty"`
	// Events, set on error and infeasible outcomes, is the run's
	// flight-recorder tail — the recent trace events leading into the
	// failure, ending with the run-end event — so a post-mortem
	// survives the process that hit the failure.
	Events []trace.FlightEntry `json:"events,omitempty"`
}

// Key returns the record's cross-run comparison key: config hash "/"
// dataset hash. Records sharing a Key ran the same experiment.
func (r *Record) Key() string { return r.Config.Hash() + "/" + r.Dataset.Hash() }

// Total returns the run's total wall time (0 when metrics are absent).
func (r *Record) Total() time.Duration {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.Total
}

// PhaseDuration returns the summed wall time of phase ph (0 when absent).
func (r *Record) PhaseDuration(ph trace.Phase) time.Duration {
	if r.Metrics == nil {
		return 0
	}
	return r.Metrics.PhaseDuration(ph)
}

// fingerprint is the order-sensitive 64-bit FNV-1a accumulator behind the
// ledger's identity hashes (Config.Hash, Dataset.Hash and the Σ and dataset
// fingerprints). Strings are written with a trailing 0 byte, so ("ab", "c")
// and ("a", "bc") differ; ints as eight little-endian bytes. The hash depends
// only on the bytes fed in, so it is stable across processes and platforms
// and ledgers keep their keys; it identifies configurations, it does not
// authenticate them.
type fingerprint struct {
	h   hash.Hash64
	buf []byte
}

func newFingerprint() *fingerprint { return &fingerprint{h: fnv.New64a()} }

func (f *fingerprint) addString(s string) *fingerprint {
	f.buf = append(append(f.buf[:0], s...), 0)
	f.h.Write(f.buf)
	return f
}

func (f *fingerprint) addInt(n int) *fingerprint {
	f.buf = binary.LittleEndian.AppendUint64(f.buf[:0], uint64(n))
	f.h.Write(f.buf)
	return f
}

// String renders the hash as 16 lowercase hex digits — the textual form the
// ledger records and the divahist CLI matches on.
func (f *fingerprint) String() string { return fmt.Sprintf("%016x", f.h.Sum64()) }

// FingerprintConstraints returns a stable, order-insensitive fingerprint of
// a constraint set: the constraints are rendered in the paper's notation,
// sorted, and hashed. An empty or nil Σ hashes to the empty string.
func FingerprintConstraints(sigma constraint.Set) string {
	if len(sigma) == 0 {
		return ""
	}
	lines := make([]string, len(sigma))
	for i, c := range sigma {
		lines[i] = c.String()
	}
	sort.Strings(lines)
	fp := newFingerprint()
	for _, l := range lines {
		fp.addString(l)
	}
	return fp.String()
}

// FingerprintRelation returns the Dataset fingerprint of rel: cardinality,
// arity, and a hash over the schema and every dictionary's values. Cost is
// O(total distinct values); it runs only when the ledger is enabled.
func FingerprintRelation(rel *relation.Relation) Dataset {
	schema := rel.Schema()
	fp := newFingerprint()
	for i := 0; i < schema.Len(); i++ {
		a := schema.Attr(i)
		fp.addString(a.Name).addInt(int(a.Role)).addInt(int(a.Kind))
		for _, v := range rel.Dict(i).Values() {
			fp.addString(v)
		}
	}
	return Dataset{Rows: rel.Len(), Columns: schema.Len(), DictHash: fp.String()}
}

// Ledger is an append-only, size-rotated run ledger rooted in one directory.
// Appends serialize behind a mutex (single writer per Ledger) and write one
// JSON line per record with O_APPEND, so concurrent processes sharing a
// directory interleave whole lines rather than shearing bytes. Use Shared to
// get the process-wide Ledger for a directory.
type Ledger struct {
	dir      string
	maxBytes int64

	mu   sync.Mutex
	f    *os.File
	size int64
	seq  uint64

	appends atomic.Int64
	errors  atomic.Int64
}

// Option configures Open.
type Option func(*Ledger)

// WithMaxBytes overrides the rotation threshold (≤ 0 keeps DefaultMaxBytes).
func WithMaxBytes(n int64) Option {
	return func(l *Ledger) {
		if n > 0 {
			l.maxBytes = n
		}
	}
}

// Open creates (if needed) dir and opens its ledger for appending.
func Open(dir string, opts ...Option) (*Ledger, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty ledger directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	l := &Ledger{dir: dir, maxBytes: DefaultMaxBytes}
	for _, o := range opts {
		o(l)
	}
	if err := l.open(); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *Ledger) open() error {
	f, err := os.OpenFile(l.path(), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("history: %w", err)
	}
	size := st.Size()
	// Heal a torn tail: if the last append was cut short of its newline (a
	// crash mid-write), terminate the fragment now so the next record lands
	// on its own line. The fragment itself stays — Load skips it — but it
	// can no longer swallow a healthy append.
	if size > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return fmt.Errorf("history: %w", err)
			}
			size++
		}
	}
	l.f, l.size = f, size
	return nil
}

// Dir returns the ledger's directory.
func (l *Ledger) Dir() string { return l.dir }

func (l *Ledger) path() string { return filepath.Join(l.dir, ledgerFile) }

// Size returns the active ledger file's size in bytes (the obs ledger-size
// gauge reads it at scrape time).
func (l *Ledger) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Appends returns how many records this Ledger appended; Errors how many
// appends failed. Both are process-local (they restart at 0 per Ledger).
func (l *Ledger) Appends() int64 { return l.appends.Load() }

// Errors returns the number of failed appends.
func (l *Ledger) Errors() int64 { return l.errors.Load() }

// Append writes rec as one JSON line, assigning rec.ID and rec.Time when
// unset and rotating the file first when the append would cross the size
// threshold. It is safe for concurrent use.
func (l *Ledger) Append(rec *Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	if rec.ID == "" {
		l.seq++
		rec.ID = fmt.Sprintf("%x-%x", rec.Time.UnixMicro(), l.seq)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		l.errors.Add(1)
		return fmt.Errorf("history: %w", err)
	}
	line = append(line, '\n')
	if l.size > 0 && l.size+int64(len(line)) > l.maxBytes {
		if err := l.rotate(); err != nil {
			l.errors.Add(1)
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		l.errors.Add(1)
		return fmt.Errorf("history: %w", err)
	}
	l.appends.Add(1)
	return nil
}

// rotate renames the active file to the previous generation (replacing it)
// and starts a fresh one. Called with mu held.
func (l *Ledger) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	if err := os.Rename(l.path(), l.path()+".1"); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	return l.open()
}

// Close closes the ledger file. The Ledger must not be used afterwards.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Process-wide ledger cache: the engine opens one Ledger per directory and
// every run in the process shares it (one writer, one size counter); the
// most recently opened one is Active, which the obs gauges and HTTP
// endpoints read.
var (
	sharedMu sync.Mutex
	shared   map[string]*Ledger
	active   atomic.Pointer[Ledger]
)

// Shared returns the process-wide Ledger for dir, opening it on first use,
// and marks it Active.
func Shared(dir string) (*Ledger, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if l, ok := shared[dir]; ok {
		active.Store(l)
		return l, nil
	}
	l, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if shared == nil {
		shared = make(map[string]*Ledger)
	}
	shared[dir] = l
	active.Store(l)
	return l, nil
}

// Active returns the most recently Shared-opened ledger, or nil when the
// process never opened one. The obs package's history endpoints and gauges
// read it.
func Active() *Ledger { return active.Load() }
