package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const catalogueFile = "../BENCHMARK.json"

// quickRun runs one workload at -quick size through the command's entry
// point and returns its stdout and parsed result line.
func quickRun(t *testing.T, name string, seed uint64, traced int) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", "0",
		"-trace", fmt.Sprint(traced), "-quick", "-benchmark", catalogueFile}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s%s", name, traced, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	return stdout.String(), res
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	cat, err := loadCatalogue(catalogueFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(cat.Workloads), len(workloads))
	}
	for _, cw := range cat.Workloads {
		if _, ok := lookupWorkload(cw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", cw.Name)
		}
	}
	for _, w := range workloads {
		for traced, specs := range [][]metricSpec{cat.EndToEnd, cat.PerLayer} {
			out, res := quickRun(t, w.name, 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics in the result, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w.name, traced, s.Name, v, s.Unit)
				}
				if !strings.Contains(out, fmt.Sprintf("%s %s %v %s\n", w.name, s.Name, v.Value, s.Unit)) {
					t.Errorf("%s trace=%d: no \"workload metric value unit\" line for %s", w.name, traced, s.Name)
				}
			}
		}
	}
}

// TestExactMetricsRepeat checks that the deterministic metrics repeat
// bit for bit on the same seed; the traced runs also assert that the replay
// reproduced the engine's SΣ (a mismatch would fail the run).
func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		_, a := quickRun(t, w.name, 7, 1)
		_, b := quickRun(t, w.name, 7, 1)
		for _, name := range []string{"stars", "accuracy", "solved_frac", "search.steps"} {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s is %v, then %v on the same seed", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := w.generate(1, true)
		if err != nil {
			t.Fatal(err)
		}
		again, err := w.generate(1, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.generate(2, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a[0].csv, again[0].csv) || a[0].sigma != again[0].sigma {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if bytes.Equal(a[0].csv, b[0].csv) {
			t.Errorf("%s: seeds 1 and 2 generated the same relation", w.name)
		}
	}
}

// TestGateCountsCorruptedOutput corrupts one published cell and one cluster
// of SΣ and checks that the output gate and the replay comparison catch them.
func TestGateCountsCorruptedOutput(t *testing.T) {
	w, _ := lookupWorkload("census-300k")
	inputs, err := w.generate(1, true)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, seed: 1}
	if _, err := r.setup(inputs); err != nil {
		t.Fatal(err)
	}
	if r.gate.failed != 0 {
		t.Fatalf("clean runs failed: %d", r.gate.failed)
	}
	s := r.anonymize(0, nil)
	if err := r.check(0, s); err != nil {
		t.Fatalf("clean output: %v", err)
	}
	out := s.res.Output
	qi := out.Schema().QIIndexes()
	corrupted := false
	for row := 0; row < out.Len() && !corrupted; row++ {
		if !out.IsSuppressed(row, qi[0]) {
			out.Suppress(row, qi[0])
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no unsuppressed QI cell to corrupt")
	}
	r.gate.record("corrupted run", r.check(0, s))
	if r.gate.failed != 1 || float64(r.gate.failed)/float64(r.gate.attempted) == 0 {
		t.Errorf("corrupted cell not counted: failed=%d attempted=%d", r.gate.failed, r.gate.attempted)
	}

	fresh := r.anonymize(0, nil)
	fresh.res.Clustering[0] = fresh.res.Clustering[0][1:]
	if err := r.replay(map[string]float64{}, 0, inputs[0], fresh, true, nil); err == nil {
		t.Error("replay accepted an altered SΣ")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}
