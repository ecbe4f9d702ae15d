// Package profile reconstructs the shape of the DIVA coloring search from
// the engine's trace event stream. The backtracking search is a call tree —
// every color assignment opens a subtree, every backtrack closes one — so
// mainstream profiling formats apply directly: the Profiler consumes the
// span-annotated events emitted by internal/search (KindAssign and
// KindBacktrack carry span and parent IDs, KindCandidates/KindCacheHit/
// KindExhausted the span they occurred under) and rebuilds per-visit spans
// with wall time, candidates tried, backtracks, cache hit ratio and max
// depth.
//
// A finalized Profile exports three dependency-free artifact formats
// (export.go): Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing, pprof-style folded stacks for flamegraph tooling, and a
// self-contained text/JSON summary. On top of the same data, the
// infeasibility explainer (explain.go) attributes a failed coloring to
// concrete constraints: candidate-exhaustion counts, upper-bound rejection
// heat, conflict-edge weight, the dominant backtrack frontier, and whether
// the engine's deliberately conservative upper-bound consistency check —
// rather than true infeasibility — rejected the last candidates.
//
// Tree reconstruction needs the per-step event stream, which the engine
// emits for sequential searches only; portfolio workers replay the winner's
// activity as batched events, which the Profiler folds into flat per-node
// aggregates (Profile.Flat) so exports and explanations degrade gracefully
// instead of breaking.
package profile

import (
	"sync"
	"time"

	"diva/internal/trace"
)

// DefaultMaxSpans bounds how many search-tree spans a Profiler materializes.
// A hard instance walks up to MaxSteps (default 1,000,000) assignments;
// materializing a span for each would cost hundreds of megabytes, so beyond
// the cap the Profiler keeps aggregating per-node counters and marks the
// Profile truncated instead of allocating further tree nodes.
const DefaultMaxSpans = 100_000

// Span is one reconstructed search-tree visit: node Node was assigned a
// candidate clustering at Start, its subtree explored, and — unless the
// search succeeded with the span still open — the assignment retracted at
// End. Times are offsets from the Profiler's start (its injected clock).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Node   int    `json:"node"`
	// Depth is the number of colored nodes after this assignment (root
	// children are at depth 1).
	Depth int           `json:"depth"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Backtracked reports that the assignment was retracted; spans on the
	// successful path stay open and are closed at the search's end time.
	Backtracked bool `json:"backtracked,omitempty"`
	// Candidates, CacheHits and CacheMisses count the candidate
	// enumerations performed directly under this span (for the children
	// about to be descended into — including strategy probing, which is
	// real work attributable to this point of the search).
	Candidates  int `json:"candidates,omitempty"`
	CacheHits   int `json:"cache_hits,omitempty"`
	CacheMisses int `json:"cache_misses,omitempty"`
	// Exhaustions counts child visits under this span that ran out of
	// candidates.
	Exhaustions int     `json:"exhaustions,omitempty"`
	Children    []*Span `json:"children,omitempty"`

	// Computed at finalize time.

	// Wall is End − Start. SelfWall is Wall minus the children's wall: time
	// attributable to this visit alone (consistency checks, enumeration).
	Wall     time.Duration `json:"wall_ns"`
	SelfWall time.Duration `json:"self_wall_ns"`
	// SubtreeAssigns and SubtreeBacktracks count assignments and retractions
	// in this span's subtree, itself included.
	SubtreeAssigns    int `json:"subtree_assigns"`
	SubtreeBacktracks int `json:"subtree_backtracks"`
	// SubtreeCandidates aggregates Candidates over the subtree, and
	// SubtreeCacheHits/SubtreeCacheMisses the candidate-cache traffic; their
	// ratio is the subtree's cache hit ratio.
	SubtreeCandidates  int `json:"subtree_candidates"`
	SubtreeCacheHits   int `json:"subtree_cache_hits"`
	SubtreeCacheMisses int `json:"subtree_cache_misses"`
	// MaxDepth is the deepest assignment depth reached inside this subtree.
	MaxDepth int `json:"max_depth"`
}

// CacheHitRatio returns the subtree's candidate-cache hit ratio in [0, 1]
// (0 when the subtree performed no enumerations).
func (s *Span) CacheHitRatio() float64 {
	total := s.SubtreeCacheHits + s.SubtreeCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.SubtreeCacheHits) / float64(total)
}

// NodeStat aggregates one constraint-graph node's search activity across
// the whole run — the flat view that stays exact even when the span tree is
// truncated or unavailable (portfolio mode).
type NodeStat struct {
	Node  int    `json:"node"`
	Label string `json:"label,omitempty"`
	// Neighbors is the node's degree in the constraint graph.
	Neighbors int `json:"neighbors"`
	// ConflictDegree sums the target-set Jaccard overlap of the node's
	// incident edges — the conflict-edge heat of its neighborhood.
	ConflictDegree float64 `json:"conflict_degree"`
	Assigns        int     `json:"assigns"`
	Backtracks     int     `json:"backtracks"`
	// Exhaustions counts visits to this node that ran out of candidates;
	// ZeroEnumerations the subset where the enumerator produced no
	// candidates at all against the current used-row set (true candidate
	// exhaustion, as opposed to consistency-check pruning).
	Exhaustions      int `json:"exhaustions"`
	ZeroEnumerations int `json:"zero_enumerations"`
	// RejectedUpper counts this node's candidates rejected by the
	// upper-bound consistency check.
	RejectedUpper int `json:"rejected_upper"`
	// BlockedBy maps blocker node → candidates of THIS node rejected by the
	// blocker's upper bound; Blamed counts the reverse direction, candidate
	// rejections across all visits attributed to THIS node's upper bound.
	BlockedBy map[int]int `json:"blocked_by,omitempty"`
	Blamed    int         `json:"blamed"`
	// SelfWall and SubtreeWall sum the corresponding span times over this
	// node's spans (zero when the tree is unavailable). Spans of one node
	// never nest within each other — a node is colored at most once per
	// search path — so SubtreeWall is well-defined.
	SelfWall    time.Duration `json:"self_wall_ns"`
	SubtreeWall time.Duration `json:"subtree_wall_ns"`
}

// Edge is one constraint-graph edge with its conflict weight.
type Edge struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Conflict float64 `json:"conflict"`
}

// PhaseSpan is one engine phase on the run timeline.
type PhaseSpan struct {
	Phase string        `json:"phase"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// Exhaustion is one recorded candidate-exhaustion event; LastExhaustion on
// a Profile is the final one before the search gave up, which is what
// decides whether the infeasible verdict came from true candidate
// exhaustion or from upper-bound pruning.
type Exhaustion struct {
	Node  int           `json:"node"`
	Depth int           `json:"depth"`
	At    time.Duration `json:"at_ns"`
	// Descended counts candidates that were assigned and backtracked out
	// of; Enumerated the candidates considered in total.
	Descended  int `json:"descended"`
	Enumerated int `json:"enumerated"`
	// RejectedUpper is the upper-bound rejections at this visit, and
	// Blocker the node whose upper bound rejected the most candidates (−1
	// when none).
	RejectedUpper int `json:"rejected_upper"`
	Blocker       int `json:"blocker"`
}

// BaselineStats aggregates the baseline partitioner's trace.KindSplit
// events: recursive cuts made, leaf partitions emitted, wall time spent
// finding cuts, the deepest recursion reached, and the per-attribute cut
// counts (which attributes carried the partitioning).
type BaselineStats struct {
	Splits   int            `json:"splits"`
	Leaves   int            `json:"leaves"`
	CutWall  time.Duration  `json:"cut_wall_ns"`
	MaxDepth int            `json:"max_depth"`
	ByAttr   map[string]int `json:"by_attr,omitempty"`
}

// ShardStats aggregates a component-wise run's trace.KindShard events: how
// many Σ connected components the coloring was decomposed into, and the
// total QI-pool rows they cover. Nil on joint runs.
type ShardStats struct {
	Components    int `json:"components"`
	ComponentRows int `json:"component_rows"`
}

// Profile is a finalized search profile: the reconstructed tree, flat
// per-node aggregates, the constraint graph's shape, and the run's outcome.
type Profile struct {
	// Metrics, Outcome and Err come from the run's terminal KindRunEnd
	// event: the engine's RunMetrics (run ID, search totals, portfolio
	// winner), the outcome ("ok", "infeasible", "canceled" or "error") and
	// the error text of a failed run. Metrics is nil and Outcome "" when no
	// run-end event was observed.
	Metrics *trace.RunMetrics `json:"metrics,omitempty"`
	Outcome string            `json:"outcome,omitempty"`
	Err     string            `json:"error,omitempty"`
	// Duration is the profile's total observed time (last event).
	Duration time.Duration `json:"duration_ns"`
	Phases   []PhaseSpan   `json:"phases,omitempty"`
	// Root is the reconstructed search tree: a synthetic span covering the
	// whole search whose children are the top-level assignments. Nil when no
	// sequential search events were observed.
	Root  *Span      `json:"root,omitempty"`
	Nodes []NodeStat `json:"nodes,omitempty"`
	Edges []Edge     `json:"edges,omitempty"`
	// MaxDepth is the deepest assignment observed (heartbeat depths
	// included, so portfolio runs report it too).
	MaxDepth int `json:"max_depth"`
	// SpanCount is the number of materialized spans; Truncated reports that
	// the MaxSpans cap was hit and deeper activity was folded into the flat
	// aggregates only. Flat reports that batched portfolio replay events
	// were observed, so no tree exists at all.
	SpanCount int  `json:"span_count"`
	Truncated bool `json:"truncated,omitempty"`
	Flat      bool `json:"flat,omitempty"`
	// Baseline aggregates the baseline partitioner's split events, so
	// profiles attribute baseline-phase time to recursive cuts the same way
	// they attribute coloring time to constraints. Nil when the partitioner
	// emitted no split events (k-member, OKA, or custom partitioners).
	Baseline *BaselineStats `json:"baseline,omitempty"`
	// Shards aggregates a component-wise run's component announcements.
	// Nil on joint runs.
	Shards *ShardStats `json:"shards,omitempty"`
	// LastExhaustion is the final exhaustion before the search gave up.
	LastExhaustion *Exhaustion `json:"last_exhaustion,omitempty"`
}

// runMetrics returns the run-end metrics, or zero metrics when the profile
// saw no run-end event.
func (p *Profile) runMetrics() *trace.RunMetrics {
	if p.Metrics != nil {
		return p.Metrics
	}
	return &trace.RunMetrics{}
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithClock replaces the Profiler's clock: now returns the offset stamped
// on incoming events. Tests inject a deterministic clock so exports are
// byte-stable; the default is wall time since New.
func WithClock(now func() time.Duration) Option {
	return func(p *Profiler) { p.now = now }
}

// WithMaxSpans caps materialized spans (≤ 0 selects DefaultMaxSpans).
func WithMaxSpans(n int) Option {
	return func(p *Profiler) {
		if n > 0 {
			p.maxSpans = n
		}
	}
}

// Profiler is a goroutine-safe trace.Tracer that reconstructs the search
// tree live. Attach one to a run via Options.Tracer (or let the engine do
// it when ops profiling is enabled), then call Profile once the run ends.
type Profiler struct {
	mu       sync.Mutex
	now      func() time.Duration
	maxSpans int

	prof      Profile
	stack     []*Span // open spans; nil entries stand in for capped ones
	nodes     []NodeStat
	finalized bool
}

// New returns an empty Profiler.
func New(opts ...Option) *Profiler {
	p := &Profiler{maxSpans: DefaultMaxSpans}
	start := time.Now()
	p.now = func() time.Duration { return time.Since(start) }
	for _, o := range opts {
		o(p)
	}
	return p
}

// node returns the NodeStat for index v, growing the table as needed.
func (p *Profiler) node(v int) *NodeStat {
	for v >= len(p.nodes) {
		p.nodes = append(p.nodes, NodeStat{Node: len(p.nodes)})
	}
	return &p.nodes[v]
}

// top returns the innermost open span (nil at the root or past the cap).
func (p *Profiler) top() *Span {
	if n := len(p.stack); n > 0 {
		return p.stack[n-1]
	}
	return nil
}

// Trace implements trace.Tracer.
func (p *Profiler) Trace(ev trace.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finalized {
		return
	}
	if ev.Kind == trace.KindRunEnd {
		// The run's outcome, not a point on its timeline: reading the clock
		// here would stretch Duration and the open spans past the run's
		// last real event.
		p.prof.Metrics, p.prof.Outcome, p.prof.Err = ev.Metrics, ev.Label, ev.Err
		return
	}
	at := p.now()
	if at > p.prof.Duration {
		p.prof.Duration = at
	}
	switch ev.Kind {
	case trace.KindPhaseStart:
		p.prof.Phases = append(p.prof.Phases, PhaseSpan{Phase: string(ev.Phase), Start: at, End: -1})
	case trace.KindPhaseEnd:
		for i := len(p.prof.Phases) - 1; i >= 0; i-- {
			if p.prof.Phases[i].Phase == string(ev.Phase) && p.prof.Phases[i].End < 0 {
				p.prof.Phases[i].End = at
				break
			}
		}
	case trace.KindNode:
		ns := p.node(ev.Node)
		ns.Label = ev.Label
		ns.Neighbors = ev.N
	case trace.KindEdge:
		p.prof.Edges = append(p.prof.Edges, Edge{A: ev.Node, B: ev.N, Conflict: ev.Conflict})
		p.node(ev.Node).ConflictDegree += ev.Conflict
		p.node(ev.N).ConflictDegree += ev.Conflict
	case trace.KindAssign:
		if ev.N > 0 || ev.Span == 0 {
			// Batched portfolio replay (or a pre-span event stream): no tree
			// structure, fold into the flat aggregates.
			p.node(ev.Node).Assigns += batch(ev.N)
			p.prof.Flat = p.prof.Flat || ev.N > 0
			return
		}
		p.node(ev.Node).Assigns++
		if ev.Depth > p.prof.MaxDepth {
			p.prof.MaxDepth = ev.Depth
		}
		if p.prof.SpanCount >= p.maxSpans {
			p.prof.Truncated = true
			p.stack = append(p.stack, nil)
			return
		}
		s := &Span{ID: ev.Span, Parent: ev.Parent, Node: ev.Node, Depth: ev.Depth, Start: at, End: -1}
		p.prof.SpanCount++
		if parent := p.top(); parent != nil {
			parent.Children = append(parent.Children, s)
		} else if root := p.root(); root != nil {
			root.Children = append(root.Children, s)
		}
		p.stack = append(p.stack, s)
	case trace.KindBacktrack:
		if ev.N > 0 || ev.Span == 0 {
			p.node(ev.Node).Backtracks += batch(ev.N)
			p.prof.Flat = p.prof.Flat || ev.N > 0
			return
		}
		p.node(ev.Node).Backtracks++
		if n := len(p.stack); n > 0 {
			s := p.stack[n-1]
			p.stack = p.stack[:n-1]
			if s != nil {
				s.End = at
				s.Backtracked = true
			}
		}
	case trace.KindCandidates:
		if s := p.top(); s != nil {
			s.Candidates += ev.N
			s.CacheMisses++
		} else if root := p.root(); root != nil {
			root.Candidates += ev.N
			root.CacheMisses++
		}
	case trace.KindCacheHit:
		if s := p.top(); s != nil {
			s.Candidates += ev.N
			s.CacheHits++
		} else if root := p.root(); root != nil {
			root.Candidates += ev.N
			root.CacheHits++
		}
	case trace.KindExhausted:
		ns := p.node(ev.Node)
		ns.Exhaustions++
		if ev.Enumerated == 0 {
			ns.ZeroEnumerations++
		}
		ns.RejectedUpper += ev.RejectedUpper
		if ev.Blocker >= 0 {
			if ns.BlockedBy == nil {
				ns.BlockedBy = make(map[int]int)
			}
			ns.BlockedBy[ev.Blocker] += ev.RejectedUpper
			p.node(ev.Blocker).Blamed += ev.RejectedUpper
		}
		if s := p.top(); s != nil {
			s.Exhaustions++
		} else if root := p.root(); root != nil {
			root.Exhaustions++
		}
		p.prof.LastExhaustion = &Exhaustion{
			Node:          ev.Node,
			Depth:         ev.Depth,
			At:            at,
			Descended:     ev.N,
			Enumerated:    ev.Enumerated,
			RejectedUpper: ev.RejectedUpper,
			Blocker:       ev.Blocker,
		}
	case trace.KindProgress:
		if ev.Depth > p.prof.MaxDepth {
			p.prof.MaxDepth = ev.Depth
		}
	case trace.KindSplit:
		bs := p.prof.Baseline
		if bs == nil {
			bs = &BaselineStats{}
			p.prof.Baseline = bs
		}
		if ev.Label == "" {
			bs.Leaves++
		} else {
			bs.Splits++
			bs.CutWall += ev.Elapsed
			if bs.ByAttr == nil {
				bs.ByAttr = make(map[string]int)
			}
			bs.ByAttr[ev.Label]++
		}
		if ev.Depth > bs.MaxDepth {
			bs.MaxDepth = ev.Depth
		}
	case trace.KindShard:
		ss := p.prof.Shards
		if ss == nil {
			ss = &ShardStats{}
			p.prof.Shards = ss
		}
		ss.Components++
		ss.ComponentRows += ev.N
	}
}

// batch widens a replayed per-node event into its batch size.
func batch(n int) int {
	if n > 0 {
		return n
	}
	return 1
}

// root lazily creates the synthetic root span covering the whole search.
func (p *Profiler) root() *Span {
	if p.prof.Root == nil {
		p.prof.Root = &Span{ID: 0, Node: -1, Depth: 0, Start: p.now(), End: -1}
	}
	return p.prof.Root
}

// Profile finalizes and returns the collected profile: open spans and
// phases are closed at the last observed time, subtree aggregates and
// per-node walls computed, and node labels defaulted. The Profiler stops
// accepting events; further Trace calls are ignored and further Profile
// calls return the same value.
func (p *Profiler) Profile() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finalized {
		return &p.prof
	}
	p.finalized = true
	end := p.prof.Duration
	for i := range p.prof.Phases {
		if p.prof.Phases[i].End < 0 {
			p.prof.Phases[i].End = end
		}
	}
	if p.prof.Root != nil {
		p.finalizeSpan(p.prof.Root, end)
	}
	// After finalizeSpan: node() may have grown the table while attributing
	// span walls, so publish the slice last.
	p.prof.Nodes = p.nodes
	p.stack = nil
	return &p.prof
}

// finalizeSpan closes s if still open and computes the subtree aggregates
// bottom-up. Recursion depth equals the search depth (≤ the number of
// constraints), so the stack is safe.
func (p *Profiler) finalizeSpan(s *Span, end time.Duration) {
	if s.End < 0 {
		s.End = end
	}
	s.Wall = s.End - s.Start
	s.SelfWall = s.Wall
	s.SubtreeAssigns = 1
	s.SubtreeBacktracks = 0
	if s.Backtracked {
		s.SubtreeBacktracks = 1
	}
	if s.ID == 0 {
		s.SubtreeAssigns = 0 // synthetic root is not an assignment
	}
	s.SubtreeCandidates = s.Candidates
	s.SubtreeCacheHits = s.CacheHits
	s.SubtreeCacheMisses = s.CacheMisses
	s.MaxDepth = s.Depth
	for _, c := range s.Children {
		p.finalizeSpan(c, end)
		s.SelfWall -= c.Wall
		s.SubtreeAssigns += c.SubtreeAssigns
		s.SubtreeBacktracks += c.SubtreeBacktracks
		s.SubtreeCandidates += c.SubtreeCandidates
		s.SubtreeCacheHits += c.SubtreeCacheHits
		s.SubtreeCacheMisses += c.SubtreeCacheMisses
		if c.MaxDepth > s.MaxDepth {
			s.MaxDepth = c.MaxDepth
		}
	}
	if s.SelfWall < 0 {
		s.SelfWall = 0
	}
	if s.Node >= 0 {
		ns := p.node(s.Node)
		ns.SelfWall += s.SelfWall
		ns.SubtreeWall += s.Wall
	}
}
