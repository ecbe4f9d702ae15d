package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one Chrome trace-event ("Trace Event Format", the JSON
// consumed by Perfetto and chrome://tracing). Only the fields the complete
// ("X") and metadata ("M") phases need are modeled; timestamps and durations
// are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const (
	chromeTidPhases = 0
	chromeTidSearch = 1
)

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// spanName renders a span's display name: the constraint label when the
// graph was described, else the node index.
func (p *Profile) spanName(node int) string {
	if node < 0 {
		return "search"
	}
	if node < len(p.Nodes) && p.Nodes[node].Label != "" {
		return fmt.Sprintf("σ%d %s", node, p.Nodes[node].Label)
	}
	return fmt.Sprintf("σ%d", node)
}

// WriteChromeTrace exports the profile as Chrome trace-event JSON: the
// engine phases on one track, the reconstructed search tree on another,
// loadable directly in Perfetto (ui.perfetto.dev) or chrome://tracing. The
// output is the object form {"traceEvents": [...]} with microsecond
// timestamps. Component-wise runs additionally carry a "shard plan" instant
// event (cat "shard") with the KindShard decomposition aggregates, runs that
// invoked the baseline partitioner a "baseline cuts" instant event (cat
// "split") with the KindSplit aggregates, each anchored at its phase start.
func (p *Profile) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := newChromeEncoder(bw)
	m := p.runMetrics()
	name := "diva search"
	if m.RunID != 0 {
		name = fmt.Sprintf("diva run %d", m.RunID)
	}
	enc.emit(chromeEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": name}})
	enc.emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: chromeTidPhases, Args: map[string]any{"name": "phases"}})
	enc.emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: chromeTidSearch, Args: map[string]any{"name": "coloring search tree"}})
	for _, ph := range p.Phases {
		dur := micros(ph.End - ph.Start)
		enc.emit(chromeEvent{Name: ph.Phase, Ph: "X", Ts: micros(ph.Start), Dur: &dur, Pid: 1, Tid: chromeTidPhases, Cat: "phase"})
	}
	if ss := p.Shards; ss != nil {
		enc.emit(chromeEvent{Name: "shard plan", Ph: "i", Ts: p.phaseStart("build-graph"), Pid: 1, Tid: chromeTidPhases, Cat: "shard", Args: map[string]any{
			"components":     ss.Components,
			"component_rows": ss.ComponentRows,
		}})
	}
	if bs := p.Baseline; bs != nil {
		enc.emit(chromeEvent{Name: "baseline cuts", Ph: "i", Ts: p.phaseStart("baseline"), Pid: 1, Tid: chromeTidPhases, Cat: "split", Args: map[string]any{
			"splits":      bs.Splits,
			"leaves":      bs.Leaves,
			"cut_wall_us": micros(bs.CutWall),
			"max_depth":   bs.MaxDepth,
		}})
	}
	if p.Root != nil {
		p.emitSpan(enc, p.Root)
	}
	if enc.err != nil {
		return enc.err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func (p *Profile) emitSpan(enc *chromeEncoder, s *Span) {
	dur := micros(s.Wall)
	args := map[string]any{
		"node":               s.Node,
		"depth":              s.Depth,
		"subtree_assigns":    s.SubtreeAssigns,
		"subtree_backtracks": s.SubtreeBacktracks,
		"candidates":         s.SubtreeCandidates,
		"cache_hit_ratio":    round3(s.CacheHitRatio()),
		"max_depth":          s.MaxDepth,
	}
	if s.Backtracked {
		args["backtracked"] = true
	}
	enc.emit(chromeEvent{Name: p.spanName(s.Node), Ph: "X", Ts: micros(s.Start), Dur: &dur, Pid: 1, Tid: chromeTidSearch, Cat: "search", Args: args})
	for _, c := range s.Children {
		p.emitSpan(enc, c)
	}
}

// phaseStart returns the start timestamp (µs) of the named phase, or 0 when
// the phase never ran — instant aggregate events anchor there so Perfetto
// shows them next to the work they summarize.
func (p *Profile) phaseStart(name string) float64 {
	for _, ph := range p.Phases {
		if ph.Phase == name {
			return micros(ph.Start)
		}
	}
	return 0
}

func round3(f float64) float64 {
	return float64(int(f*1000+0.5)) / 1000
}

// chromeEncoder streams trace events as a comma-separated JSON array body.
type chromeEncoder struct {
	w     *bufio.Writer
	first bool
	err   error
}

func newChromeEncoder(w *bufio.Writer) *chromeEncoder {
	return &chromeEncoder{w: w, first: true}
}

func (e *chromeEncoder) emit(ev chromeEvent) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		e.err = err
		return
	}
	if !e.first {
		if _, e.err = e.w.WriteString(",\n"); e.err != nil {
			return
		}
	}
	e.first = false
	_, e.err = e.w.Write(b)
}

// WriteFoldedStacks exports the search tree as pprof-style folded stacks:
// one line per distinct root-to-span path, semicolon-separated frames
// followed by the path's aggregated self wall time in microseconds —
// directly consumable by flamegraph.pl, inferno or speedscope. Lines are
// sorted for deterministic output.
func (p *Profile) WriteFoldedStacks(w io.Writer) error {
	agg := make(map[string]int64)
	if p.Root != nil {
		var frames []string
		p.foldSpan(p.Root, frames, agg)
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "%s %d\n", k, agg[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (p *Profile) foldSpan(s *Span, frames []string, agg map[string]int64) {
	frames = append(frames, p.spanName(s.Node))
	agg[strings.Join(frames, ";")] += s.SelfWall.Microseconds()
	for _, c := range s.Children {
		p.foldSpan(c, frames, agg)
	}
}

// WriteSummary renders a self-contained human-readable text summary: run
// outcome, phase timeline, search totals, and the hottest constraints by
// subtree wall time and backtracks. The same data (plus the full tree) is
// available as JSON by marshaling the Profile itself.
func (p *Profile) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m := p.runMetrics()
	fmt.Fprintf(bw, "search profile")
	if m.RunID != 0 {
		fmt.Fprintf(bw, " (run %d)", m.RunID)
	}
	if p.Outcome != "" {
		fmt.Fprintf(bw, " — outcome: %s", p.Outcome)
	}
	fmt.Fprintln(bw)
	if p.Err != "" {
		fmt.Fprintf(bw, "error: %s\n", p.Err)
	}
	if len(p.Phases) > 0 {
		fmt.Fprintf(bw, "phases:")
		for _, ph := range p.Phases {
			fmt.Fprintf(bw, " %s=%s", ph.Phase, (ph.End - ph.Start).Round(time.Microsecond))
		}
		fmt.Fprintln(bw)
	}
	hitRatio := 0.0
	if lookups := m.CandidateCacheHits + m.CandidateCacheMisses; lookups > 0 {
		hitRatio = float64(m.CandidateCacheHits) / float64(lookups)
	}
	fmt.Fprintf(bw, "search: steps=%d backtracks=%d candidates=%d cache-hit-ratio=%.2f max-depth=%d spans=%d\n",
		m.Steps, m.Backtracks, m.CandidatesTried, hitRatio, p.MaxDepth, p.SpanCount)
	if p.Flat {
		fmt.Fprintln(bw, "note: portfolio run — per-node aggregates only, no span tree")
	}
	if p.Truncated {
		fmt.Fprintln(bw, "note: span cap reached — tree truncated, aggregates stay exact")
	}
	if m.WinnerStrategy != "" {
		fmt.Fprintf(bw, "portfolio winner: worker %d (%s)\n", m.WinnerWorker, m.WinnerStrategy)
	}
	if ss := p.Shards; ss != nil {
		fmt.Fprintf(bw, "sharded: components=%d component-rows=%d\n", ss.Components, ss.ComponentRows)
	}
	if bs := p.Baseline; bs != nil {
		fmt.Fprintf(bw, "baseline: splits=%d leaves=%d cut-wall=%s max-depth=%d",
			bs.Splits, bs.Leaves, bs.CutWall.Round(time.Microsecond), bs.MaxDepth)
		if len(bs.ByAttr) > 0 {
			attrs := make([]string, 0, len(bs.ByAttr))
			for a := range bs.ByAttr {
				attrs = append(attrs, a)
			}
			sort.Slice(attrs, func(i, j int) bool {
				if bs.ByAttr[attrs[i]] != bs.ByAttr[attrs[j]] {
					return bs.ByAttr[attrs[i]] > bs.ByAttr[attrs[j]]
				}
				return attrs[i] < attrs[j]
			})
			fmt.Fprintf(bw, " cuts-by-attr:")
			for _, a := range attrs {
				fmt.Fprintf(bw, " %s=%d", a, bs.ByAttr[a])
			}
		}
		fmt.Fprintln(bw)
	}
	if len(p.Nodes) > 0 {
		fmt.Fprintln(bw, "hottest constraints:")
		order := make([]int, len(p.Nodes))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			na, nb := &p.Nodes[order[a]], &p.Nodes[order[b]]
			if na.SubtreeWall != nb.SubtreeWall {
				return na.SubtreeWall > nb.SubtreeWall
			}
			if na.Backtracks != nb.Backtracks {
				return na.Backtracks > nb.Backtracks
			}
			return na.Node < nb.Node
		})
		shown := 0
		for _, i := range order {
			ns := &p.Nodes[i]
			if ns.Assigns == 0 && ns.Exhaustions == 0 {
				continue
			}
			fmt.Fprintf(bw, "  %-32s subtree=%-12s self=%-12s assigns=%-6d backtracks=%-6d exhaustions=%-5d conflict=%.3f\n",
				p.spanName(ns.Node), ns.SubtreeWall.Round(time.Microsecond), ns.SelfWall.Round(time.Microsecond),
				ns.Assigns, ns.Backtracks, ns.Exhaustions, ns.ConflictDegree)
			shown++
			if shown >= 10 {
				break
			}
		}
	}
	return bw.Flush()
}
