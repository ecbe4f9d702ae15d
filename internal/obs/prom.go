// Package obs is the production ops layer of the DIVA engine: a
// dependency-free Prometheus text-format exposition (counters, scrape-time
// gauges and histograms), a goroutine-safe live run registry fed by the engine's
// KindProgress heartbeats, an HTTP ops server mounting /metrics, /debug/vars,
// /debug/pprof and /debug/diva/runs, and slog-backed structured logging.
//
// The package deliberately reimplements the small slice of the Prometheus
// client it needs instead of vendoring one: the exposition is plain text
// (https://prometheus.io/docs/instrumenting/exposition_formats/), and the
// engine's metric needs — monotone counters, a live-runs gauge, and
// exponential-bucket histograms for durations and search effort — fit in a
// few hundred lines with no external dependency.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the counter monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Observations are
// lock-free; exposition reads the buckets with atomic loads (a scrape may
// observe a bucket increment before the matching sum update — the standard
// Prometheus client has the same benign skew).
type Histogram struct {
	upper   []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n bucket upper bounds growing exponentially from start
// by factor: start, start·factor, …, start·factor^(n−1). The +Inf bucket is
// implicit.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start
		start *= factor
	}
	return b
}

// LinearBuckets returns n bucket upper bounds spaced width apart starting at
// start.
func LinearBuckets(start, width float64, n int) []float64 {
	if n < 1 {
		panic("obs: LinearBuckets wants n ≥ 1")
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// family is one named metric family in a Registry.
type family struct {
	name, help, typ string
	expose          func(w io.Writer, name string)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Families expose in registration order; labeled children
// expose sorted by label value, so the output is deterministic.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	seen map[string]bool
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{seen: make(map[string]bool)} }

func (r *Registry) register(name, help, typ string, expose func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen[name] {
		panic("obs: duplicate metric " + name)
	}
	r.seen[name] = true
	r.fams = append(r.fams, &family{name: name, help: help, typ: typ, expose: expose})
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// NewCounterFunc registers a counter whose value is read at scrape time from
// fn — for counts maintained elsewhere (e.g. the history ledger's append
// counters). fn must be monotone non-decreasing to honor counter semantics.
func (r *Registry) NewCounterFunc(name, help string, fn func() int64) {
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// NewHistogram registers and returns a histogram with the given bucket upper
// bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		writeHistogram(w, n, "", "", h)
	})
	return h
}

// CounterVec is a family of counters keyed by one label.
type CounterVec struct {
	label string
	mu    sync.Mutex
	m     map[string]*Counter
}

// With returns (creating if needed) the counter for the label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.m[value]
	if !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// NewCounterVec registers and returns a counter family keyed by label.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{label: label, m: make(map[string]*Counter)}
	r.register(name, help, "counter", func(w io.Writer, n string) {
		v.mu.Lock()
		vals := sortedKeys(v.m)
		children := make([]*Counter, len(vals))
		for i, lv := range vals {
			children[i] = v.m[lv]
		}
		v.mu.Unlock()
		for i, lv := range vals {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", n, v.label, lv, children[i].Value())
		}
	})
	return v
}

// HistogramVec is a family of histograms keyed by one label, all sharing the
// same buckets.
type HistogramVec struct {
	label   string
	buckets []float64
	mu      sync.Mutex
	m       map[string]*Histogram
}

// With returns (creating if needed) the histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.m[value]
	if !ok {
		h = newHistogram(v.buckets)
		v.m[value] = h
	}
	return h
}

// NewHistogramVec registers and returns a histogram family keyed by label.
func (r *Registry) NewHistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	v := &HistogramVec{label: label, buckets: buckets, m: make(map[string]*Histogram)}
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		v.mu.Lock()
		vals := sortedKeys(v.m)
		children := make([]*Histogram, len(vals))
		for i, lv := range vals {
			children[i] = v.m[lv]
		}
		v.mu.Unlock()
		for i, lv := range vals {
			writeHistogram(w, n, v.label, lv, children[i])
		}
	})
	return v
}

// WritePrometheus renders every registered family in the text exposition
// format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.expose(w, f.name)
	}
}

// Handler returns an http.Handler serving the registry's exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func writeHistogram(w io.Writer, name, label, value string, h *Histogram) {
	cum := int64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, bucketPrefix(label, value), formatFloat(ub), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketPrefix(label, value), cum)
	suffix := ""
	if label != "" {
		suffix = "{" + label + "=" + strconv.Quote(value) + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, cum)
}

func bucketPrefix(label, value string) string {
	if label == "" {
		return ""
	}
	return label + "=" + strconv.Quote(value) + ","
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
