package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"diva/internal/anon"
	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/obs"
	"diva/internal/relation"
	"diva/internal/search"
	"diva/internal/trace"
)

// maxSpanRuns bounds how many instances keep their spans for the trace file;
// the per-layer metrics cover every instance regardless.
const maxSpanRuns = 256

// The telemetry ladder: each rung adds one consumer to the previous one.
const (
	rungNil      = iota // Options.Tracer = nil (the engine's own tee stays)
	rungRecorder        // + a caller trace.NewRecorder()
	rungProfiler        // + obs.EnableProfiling(true)
	rungSSE             // + a draining obs.Runs.Events() subscriber
	rungs
)

// pass runs every instance once at the given ladder rung and returns the
// summed wall time of the core.Anonymize calls.
func (r *runner) pass(rung int) time.Duration {
	if rung >= rungProfiler {
		obs.EnableProfiling(true)
		defer obs.EnableProfiling(false)
	}
	if rung >= rungSSE {
		stop := drainEvents()
		defer stop()
	}
	var total time.Duration
	for i := range r.insts {
		var tr trace.Tracer
		if rung >= rungRecorder {
			tr = trace.NewRecorder()
		}
		s := r.measured(i, tr)
		total += s.wall
		r.gate.record(fmt.Sprintf("ladder rung %d instance %d", rung, i), r.check(i, s))
	}
	return total
}

// drainEvents subscribes to every run's event stream and encodes each event
// as the SSE endpoint would, until the returned stop function is called; stop
// returns once the goroutine has exited.
func drainEvents() (stop func()) {
	sub := obs.Runs.Events().Subscribe(0, 0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case ev := <-sub.Events():
				_, _ = json.Marshal(ev.Entry) // the encoding cost is what an SSE client adds
			case <-sub.Done():
				return
			}
		}
	}()
	return func() {
		obs.Runs.Events().Unsubscribe(sub)
		wg.Wait()
	}
}

// traced measures the per-layer metrics: the telemetry ladder for half of
// the time budget (whole rounds, rungs in rotating order), then one traced
// core.Anonymize per instance followed by a replay of the same instance
// through the layers' public functions.
func (r *runner) traced(inputs []input, seconds float64, spans *spanLog) map[string]float64 {
	var ladder [rungs][]float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start).Seconds() < seconds/2; round++ {
		for j := 0; j < rungs; j++ {
			rung := (round + j) % rungs
			ladder[rung] = append(ladder[rung], r.pass(rung).Seconds())
		}
	}
	base := median(ladder[rungNil])

	sums := map[string]float64{}
	for _, name := range layerSums {
		sums[name] = 0
	}
	for _, ph := range trace.Phases() {
		sums["phase."+string(ph)+"_s"] = 0
	}
	var q quality
	var engineWall time.Duration
	for i, in := range inputs {
		var root uint64
		var spanned *spanLog
		if i < maxSpanRuns {
			spanned = spans
			root = spans.id()
		}
		pt := newPhaseTracer()
		pt.spans, pt.parent, pt.run = spanned, root, i
		t0 := time.Now()
		s := r.measured(i, pt)
		if spanned != nil {
			spans.add(span{name: "core.Anonymize", start: t0, end: t0.Add(s.wall), id: root, run: i, tid: 1})
		}
		engineWall += s.wall
		q.add(s)
		sums["trace.events"] += float64(pt.events.Load())
		for ph, d := range pt.elapsed {
			sums["phase."+string(ph)+"_s"] += d.Seconds()
		}
		if s.err == nil {
			sums["core.repaired_cells"] += float64(s.res.RepairedCells)
		}
		r.gate.record(fmt.Sprintf("traced run of instance %d", i), r.replay(sums, i, in, s, pt.colored(), spanned))
	}

	n := float64(len(r.insts))
	m := map[string]float64{}
	for name, v := range sums {
		m[name] = v / n
	}
	m["trace.events_per_run"] = sums["trace.events"] / n
	delete(m, "trace.events")
	hits, misses := sums["search.cache_hits"], sums["search.cache_misses"]
	delete(m, "search.cache_hits")
	delete(m, "search.cache_misses")
	m["search.cache_hit_ratio"] = ratio(hits, hits+misses)
	steps := sums["search.steps"]
	m["search.useful_step_ratio"] = ratio(steps-sums["search.backtracks"], steps)
	m["search.attribution_overhead_frac"] = 0
	if c := sums["search.color_s"]; c > 0 {
		m["search.attribution_overhead_frac"] = sums["phase.color_s"]/c - 1
	}
	m["anon.parallel_speedup"] = ratio(sums["anon.partition_seq_s"], sums["anon.partition_s"])
	var path float64
	for _, name := range pathLayers {
		path += sums[name]
	}
	m["replay.gap_frac"] = (engineWall.Seconds() - path) / engineWall.Seconds()
	m["telemetry.traced_run_frac"] = engineWall.Seconds()/base - 1
	m["telemetry.recorder_frac"] = median(ladder[rungRecorder])/base - 1
	m["telemetry.profiler_frac"] = median(ladder[rungProfiler])/base - 1
	m["telemetry.sse_frac"] = median(ladder[rungSSE])/base - 1
	q.into(m)
	return m
}

// layerSums are the replay's accumulators; a layer the workload's path never
// calls (Components on a monolithic run, Mondrian on an infeasible one)
// reports 0.
var layerSums = []string{
	"relation.parse_s", "constraint.parse_s", "constraint.bind_s",
	"constraint.components_s", "constraint.components", "constraint.target_sets_s",
	"cluster.new_enumerator_s", "search.build_graph_s", "cluster.candidates_s",
	"cluster.candidates", "search.color_s", "search.steps", "search.backtracks",
	"search.candidates_tried", "search.cache_hits", "search.cache_misses",
	"core.suppress_s", "anon.partition_s", "anon.partition_seq_s", "anon.groups",
	"core.repaired_cells", "verify.validate_s", "trace.events",
}

// pathLayers are the replay's spans that redo the engine's own work; their
// sum against the engine's wall leaves the engine's glue and telemetry.
var pathLayers = []string{
	"constraint.bind_s", "constraint.components_s", "search.build_graph_s",
	"search.color_s", "core.suppress_s", "anon.partition_s",
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replay checks the engine's run of instance i (r.check, timed as the verify
// layer), then redoes the run call by call through the public functions of
// each layer, timing every call, and checks that it reaches the engine's
// verdict and SΣ (and, on exactRest workloads, Rk). spans, when non-nil,
// receives one span per call.
func (r *runner) replay(sums map[string]float64, i int, in input, engine sample, engineColored bool, spans *spanLog) error {
	inst := r.insts[i]
	rel, k := inst.rel, inst.k
	var root uint64
	if spans != nil {
		root = spans.id()
	}
	rootStart := time.Now()
	call := func(name string, f func()) {
		t0 := time.Now()
		f()
		t1 := time.Now()
		sums[name+"_s"] += t1.Sub(t0).Seconds()
		if spans != nil {
			spans.add(span{name: name, start: t0, end: t1, id: spans.id(), parent: root, run: i, tid: 2})
		}
	}
	defer func() {
		if spans != nil {
			spans.add(span{name: "replay", start: rootStart, end: time.Now(), id: root, run: i, tid: 2})
		}
	}()

	var checkErr error
	call("verify.validate", func() { checkErr = r.check(i, engine) })
	if checkErr != nil {
		return checkErr
	}
	// Parsing is timed on a second copy; the replay then works on the
	// relation the engine ran on, so codes compare directly.
	call("relation.parse", func() { _, _ = parseRelation(in) })
	call("constraint.parse", func() { _, _ = parseSigma(in) })

	clustering, colored := r.replayColoring(sums, i, call)
	if colored != engineColored {
		return fmt.Errorf("replay colored=%v, engine colored=%v", colored, engineColored)
	}
	if !colored {
		return nil
	}
	var rest []int
	call("core.suppress", func() {
		core.Suppress(rel, clustering)
		used := clustering.RowSet(rel.Len())
		for row := 0; row < rel.Len(); row++ {
			if !used.Contains(row) {
				rest = append(rest, row)
			}
		}
	})
	var parts, seqParts [][]int
	var perr, serr error
	call("anon.partition", func() {
		parts, perr = (&anon.Mondrian{Criterion: inst.crit}).Partition(context.Background(), rel, rest, k)
	})
	call("anon.partition_seq", func() {
		seqParts, serr = (&anon.Mondrian{Criterion: inst.crit, Parallelism: 1}).Partition(context.Background(), rel, rest, k)
	})
	sums["anon.groups"] += float64(len(parts))
	var restRel *relation.Relation
	call("core.suppress", func() { restRel = core.Suppress(rel, parts) })

	if engine.err != nil {
		// Integrate or the output criterion rejected the run after coloring;
		// only the verdict is comparable.
		return nil
	}
	if perr != nil || serr != nil {
		return fmt.Errorf("replay partition: %v / %v", perr, serr)
	}
	if !sameClusters(parts, seqParts) {
		return fmt.Errorf("parallel and sequential Mondrian disagree")
	}
	if !sameClusters(clustering, engine.res.Clustering) {
		return fmt.Errorf("replay SΣ (%d clusters) differs from the engine's (%d clusters)", len(clustering), len(engine.res.Clustering))
	}
	if r.w.exactRest && engine.res.RepairedCells == 0 && !sameRows(restRel, engine.res.Rest) {
		return fmt.Errorf("replay Rk differs from the engine's")
	}
	return nil
}

// replayColoring mirrors the engine's bind, build-graph and color phases and
// returns SΣ, or colored=false where the engine reports infeasibility.
func (r *runner) replayColoring(sums map[string]float64, i int, call func(string, func())) (cluster.Clustering, bool) {
	inst := r.insts[i]
	rel, k := inst.rel, inst.k
	if rel.Len() > 0 && rel.Len() < k {
		return nil, false
	}
	var searchable []*constraint.Bound
	bindOK := true
	call("constraint.bind", func() {
		bounds, err := inst.sigma.Bind(rel)
		if err != nil {
			bindOK = false
			return
		}
		schema := rel.Schema()
		for _, b := range bounds {
			if slices.ContainsFunc(b.Attrs, func(a int) bool { return schema.Attr(a).Role == relation.QI }) {
				searchable = append(searchable, b)
			} else if n := b.CountIn(rel); n < b.Lower || n > b.Upper {
				bindOK = false
			}
		}
	})
	if !bindOK {
		return nil, false
	}
	copts := cluster.Options{K: k, Criterion: inst.crit}
	rng := r.options(i, nil).Rng

	if shardCount(r.w.shards, rel.Len()) > 1 {
		var comps []constraint.Component
		call("constraint.components", func() { comps = constraint.Components(rel, searchable) })
		sums["constraint.components"] += float64(len(comps))
		graphs := make([]*search.Graph, len(comps))
		for ci, comp := range comps {
			graphs[ci] = replayGraph(sums, rel, comp.Bounds, copts, call)
		}
		seeds := make([]uint64, len(comps))
		for ci := range seeds {
			seeds[ci] = rng.Uint64()
		}
		var merged cluster.Clustering
		ok := true
		for ci, g := range graphs {
			s := rand.New(rand.NewPCG(seeds[ci], seeds[ci]^0x6c62272e07bb0142))
			c, found := replayColor(sums, g, search.Options{Strategy: search.MinChoice, Rng: s}, call)
			ok = ok && found
			merged = append(merged, c...)
		}
		if !ok {
			return nil, false
		}
		if rest := rel.Len() - merged.RowSet(rel.Len()).Len(); rest == 0 || rest >= k {
			return merged, true
		}
		// The engine falls back to the monolithic path here.
	}
	g := replayGraph(sums, rel, searchable, copts, call)
	n := rel.Len()
	return replayColor(sums, g, search.Options{
		Strategy: search.MinChoice,
		Rng:      rng,
		Accept:   func(used int) bool { rest := n - used; return rest == 0 || rest >= k },
	}, call)
}

// replayGraph times BuildGraph's ingredients one by one (target sets,
// enumerators), then BuildGraph itself, then one candidate enumeration per
// node on an empty used-set.
func replayGraph(sums map[string]float64, rel *relation.Relation, bounds []*constraint.Bound, copts cluster.Options, call func(string, func())) *search.Graph {
	call("constraint.target_sets", func() {
		for _, b := range bounds {
			b.TargetSet(rel)
		}
	})
	call("cluster.new_enumerator", func() {
		for _, b := range bounds {
			cluster.NewEnumerator(rel, b, copts)
		}
	})
	var g *search.Graph
	call("search.build_graph", func() { g = search.BuildGraph(rel, bounds, copts) })
	call("cluster.candidates", func() {
		for _, node := range g.Nodes {
			sums["cluster.candidates"] += float64(len(node.Enum.Candidates(context.Background(), nil)))
		}
	})
	return g
}

// replayColor runs the untraced coloring and records its search counters.
func replayColor(sums map[string]float64, g *search.Graph, opts search.Options, call func(string, func())) (cluster.Clustering, bool) {
	var c cluster.Clustering
	var st search.Stats
	var found bool
	call("search.color", func() { c, st, found = g.Color(opts) })
	sums["search.steps"] += float64(st.Steps)
	sums["search.backtracks"] += float64(st.Backtracks)
	sums["search.candidates_tried"] += float64(st.CandidatesTried)
	sums["search.cache_hits"] += float64(st.CacheHits)
	sums["search.cache_misses"] += float64(st.CacheMisses)
	return c, found
}

// shardCount mirrors core's resolution of Options.Shards (its minimum of
// 4096 rows per automatic shard included).
func shardCount(want, n int) int {
	switch {
	case want == 0:
		return 1
	case want < 0:
		w := min(runtime.GOMAXPROCS(0), n/4096)
		if w < 2 {
			return 1
		}
		return w
	case want < 2:
		return 1
	default:
		return want
	}
}

func sameClusters(a, b [][]int) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

func sameRows(a, b *relation.Relation) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Row(i), b.Row(i)) {
			return false
		}
	}
	return true
}
