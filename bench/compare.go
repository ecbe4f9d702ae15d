package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareSets reads two directories of result files named
// <workload>.<seed>.out (each ending in a result line) and prints, per
// workload and end-to-end metric, each set's quartiles and the change of the
// second median against the first. It returns 1 when a run failed its
// checks or a median moved by more than the metric's bound in either
// direction; two sets of the same commit should agree.
func compareSets(cat *catalogue, dir1, dir2 string, stdout, stderr io.Writer) int {
	sets := make([]map[string][]result, 2)
	for i, dir := range []string{dir1, dir2} {
		s, err := loadResults(dir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		sets[i] = s
	}
	var names []string
	for name := range sets[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	status := 0
	for _, name := range names {
		for si, s := range sets {
			for _, r := range s[name] {
				if !r.Correct {
					fmt.Fprintf(stdout, "%s set%d: a run failed %d of %d checks\n", name, si+1, r.Failed, r.Attempted)
					status = 1
				}
			}
		}
		for _, spec := range cat.EndToEnd {
			var q [2][3]float64
			for si, s := range sets {
				var vals []float64
				for _, r := range s[name] {
					if v, ok := r.Metrics[spec.Name]; ok {
						vals = append(vals, v.Value)
					}
				}
				if len(vals) == 0 {
					fmt.Fprintf(stdout, "%s %s: no values in set%d\n", name, spec.Name, si+1)
					status = 1
					continue
				}
				q[si] = quartiles(vals)
			}
			change := q[1][1]/q[0][1] - 1
			verdict := "ok"
			if math.Abs(change) > spec.Bound {
				verdict = fmt.Sprintf("DISAGREE (bound %.0f%%)", 100*spec.Bound)
				status = 1
			}
			fmt.Fprintf(stdout, "%-20s %-12s set1 %.6g [%.6g, %.6g]  set2 %.6g [%.6g, %.6g] %s  %+.1f%%  %s\n",
				name, spec.Name, q[0][1], q[0][0], q[0][2], q[1][1], q[1][0], q[1][2], spec.Unit, 100*change, verdict)
		}
	}
	return status
}

// loadResults reads the last line of every <workload>.<seed>.out in dir.
func loadResults(dir string) (map[string][]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := map[string][]result{}
	for _, p := range paths {
		line, err := lastLine(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		name, _, _ := strings.Cut(filepath.Base(p), ".")
		out[name] = append(out[name], r)
	}
	return out, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the exclusive
// method), so the printed spread matches how the benchmark is judged.
func quartiles(values []float64) [3]float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}
