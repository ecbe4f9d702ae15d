package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", h.Count())
	}
	if h.Sum() != 8 {
		t.Fatalf("Sum() = %g, want 8", h.Sum())
	}
	// le is inclusive: 1.0 lands in the le="1" bucket.
	want := []int64{2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestBucketGenerators(t *testing.T) {
	exp := ExpBuckets(1, 2, 3)
	if len(exp) != 3 || exp[0] != 1 || exp[1] != 2 || exp[2] != 4 {
		t.Fatalf("ExpBuckets(1,2,3) = %v", exp)
	}
	lin := LinearBuckets(1, 0.5, 3)
	if len(lin) != 3 || lin[0] != 1 || lin[1] != 1.5 || lin[2] != 2 {
		t.Fatalf("LinearBuckets(1,0.5,3) = %v", lin)
	}
	for _, fn := range []func(){
		func() { ExpBuckets(0, 2, 3) },
		func() { ExpBuckets(1, 1, 3) },
		func() { LinearBuckets(0, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad bucket spec did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestExpositionGolden locks the full text exposition format: HELP/TYPE
// headers, registration order, cumulative buckets with +Inf, and labeled
// children sorted by label value.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_runs_total", "Runs.")
	c.Add(3)
	r.NewGaugeFunc("test_temp", "Temp.", func() float64 { return 1.5 })
	h := r.NewHistogram("test_dur", "Dur.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(5)
	v := r.NewCounterVec("test_outcomes_total", "Outcomes.", "outcome")
	v.With("ok").Add(2)
	v.With("error").Inc()
	hv := r.NewHistogramVec("test_phase", "Phase.", "phase", []float64{1})
	hv.With("bind").Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP test_runs_total Runs.
# TYPE test_runs_total counter
test_runs_total 3
# HELP test_temp Temp.
# TYPE test_temp gauge
test_temp 1.5
# HELP test_dur Dur.
# TYPE test_dur histogram
test_dur_bucket{le="1"} 1
test_dur_bucket{le="2"} 2
test_dur_bucket{le="+Inf"} 3
test_dur_sum 7
test_dur_count 3
# HELP test_outcomes_total Outcomes.
# TYPE test_outcomes_total counter
test_outcomes_total{outcome="error"} 1
test_outcomes_total{outcome="ok"} 2
# HELP test_phase Phase.
# TYPE test_phase histogram
test_phase_bucket{phase="bind",le="1"} 1
test_phase_bucket{phase="bind",le="+Inf"} 1
test_phase_sum{phase="bind"} 0.5
test_phase_count{phase="bind"} 1
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.NewGaugeFunc("test_live", "Live.", func() float64 { n++; return float64(n) })
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "test_live 1\n") {
		t.Fatalf("gauge func not evaluated at scrape time:\n%s", b.String())
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "First.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	r.NewCounter("dup", "Second.")
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("test_total", "T.")
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); !strings.HasPrefix(got, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", got)
	}
	if !strings.Contains(rec.Body.String(), "test_total 0") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}
