// Package search implements DiverseClustering (Algorithms 3–4 of the
// paper): the constraint graph, the backtracking coloring search, and the
// three node-selection strategies Basic, MinChoice and MaxFanOut.
//
// Each diversity constraint is a node; an edge joins two constraints whose
// target tuple sets overlap. A color for a node is one of the candidate
// clusterings enumerated by package cluster. An assignment of colors is
// consistent when (1) clusters of different nodes are pairwise disjoint
// unless identical, and (2) no constraint's upper bound is exceeded by the
// occurrences the assigned clusterings preserve. Following Section 3.3's
// "we update the candidate clusterings for their neighbors", a node's
// candidates are enumerated against the rows still unclaimed, so condition
// (1) holds by construction for fresh clusters, and they are re-enumerated
// only when an assignment claims or releases rows in the node's pool.
package search

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"

	"diva/internal/cluster"
	"diva/internal/constraint"
	"diva/internal/relation"
	"diva/internal/rowset"
	"diva/internal/trace"
)

// Strategy selects the next uncolored node during the search.
type Strategy uint8

const (
	// Basic picks a random uncolored node (DIVA-Basic in the paper).
	Basic Strategy = iota
	// MinChoice picks the uncolored node with the fewest candidate
	// clusterings still available against the current partial assignment
	// (most restrictive first).
	MinChoice
	// MaxFanOut picks the uncolored node with the most uncolored neighbors
	// (most interactions first), pruning unsatisfiable clusterings early.
	MaxFanOut
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case Basic:
		return "Basic"
	case MinChoice:
		return "MinChoice"
	case MaxFanOut:
		return "MaxFanOut"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// ParseStrategy resolves a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "Basic", "basic":
		return Basic, nil
	case "MinChoice", "minchoice":
		return MinChoice, nil
	case "MaxFanOut", "maxfanout":
		return MaxFanOut, nil
	}
	return Basic, fmt.Errorf("search: unknown strategy %q", name)
}

// Node is one constraint in the graph.
type Node struct {
	// Index is the node's position in Graph.Nodes and in the original
	// constraint set.
	Index int
	// Bound is the constraint the node represents.
	Bound *constraint.Bound
	// Enum produces candidate clusterings for the constraint against the
	// rows still available.
	Enum *cluster.Enumerator
	// Neighbors are indexes of nodes whose constraints share target tuples.
	Neighbors []int
}

// Graph is the constraint graph of Section 3.3.
type Graph struct {
	Nodes []*Node
	rel   *relation.Relation
	// targets[i] is node i's full target set Iσ, read once by BuildGraph
	// from the node's enumerator for the Neighbors relation and reused by
	// DescribeMapped's conflict-edge weights.
	targets []*rowset.Set
	// pools[i] is node i's QI target pool (Enumerator.Pool — the rows
	// candidate enumeration draws from) as a bitset. Enumeration reads the
	// used-row set only inside the pool, so the search keys node i's cached
	// enumerations by the used rows in pools[i] (see state.poolFp). A node
	// whose pool is its full target set shares targets[i]; the pools of
	// targets with sensitive components share one backing array.
	pools []*rowset.Set
}

// BuildGraph constructs the constraint graph for the bound constraints over
// rel, preparing candidate enumeration per node with the given options.
func BuildGraph(rel *relation.Relation, bounds []*constraint.Bound, opts cluster.Options) *Graph {
	targets, pools := make([]*rowset.Set, len(bounds)), make([]*rowset.Set, len(bounds))
	g := &Graph{rel: rel, Nodes: make([]*Node, len(bounds)), targets: targets, pools: pools}
	mixed := 0
	for i, e := range cluster.NewEnumerators(rel, bounds, opts) {
		g.Nodes[i] = &Node{Index: i, Bound: bounds[i], Enum: e}
		targets[i] = e.TargetSet()
		// Iσ ⊆ pool, so equal sizes mean the pool is Iσ; otherwise some pool
		// rows match only the target's QI components.
		if targets[i].Len() == len(e.Pool()) {
			pools[i] = targets[i]
		} else {
			mixed++
		}
	}
	batch := rowset.NewBatch(rel.Len(), mixed)
	for i, n := range g.Nodes {
		if pools[i] == nil {
			pools[i], batch = &batch[0], batch[1:]
			pools[i].AddSlice(n.Enum.Pool())
		}
	}
	for i := range g.Nodes {
		for j := i + 1; j < len(g.Nodes); j++ {
			if targets[i].Intersects(targets[j]) {
				g.Nodes[i].Neighbors = append(g.Nodes[i].Neighbors, j)
				g.Nodes[j].Neighbors = append(g.Nodes[j].Neighbors, i)
			}
		}
	}
	return g
}

// DescribeMapped emits the graph's shape into tr: one KindNode event per
// node (index, constraint label, neighbor count) and one KindEdge event per
// edge with the endpoints' target-set Jaccard overlap. Consumers such as the
// search profiler use these to label search-tree spans with constraints and
// to weight conflict-edge heat in infeasibility explanations; the engine
// calls it once per graph during the build-graph phase. index maps this
// graph's node indexes to positions in a larger constraint set, so a
// per-component graph's events carry globally meaningful node ids
// (profilers and explainers key constraints by them). A nil index is the
// identity.
func (g *Graph) DescribeMapped(tr trace.Tracer, index []int) {
	if tr == nil || tr == trace.Nop {
		return
	}
	id := func(i int) int {
		if index != nil {
			return index[i]
		}
		return i
	}
	for _, n := range g.Nodes {
		tr.Trace(trace.Event{Kind: trace.KindNode, Node: id(n.Index), Label: n.Bound.String(), N: len(n.Neighbors)})
	}
	for _, n := range g.Nodes {
		for _, j := range n.Neighbors {
			if j <= n.Index {
				continue // each edge once, from its lower endpoint
			}
			tr.Trace(trace.Event{
				Kind:     trace.KindEdge,
				Node:     id(n.Index),
				N:        id(j),
				Conflict: constraint.Jaccard(g.targets[n.Index], g.targets[j]),
			})
		}
	}
}

// Stats reports search effort.
type Stats struct {
	// Steps counts color-assignment attempts.
	Steps int
	// Backtracks counts retracted assignments.
	Backtracks int
	// CandidatesTried counts consistency checks of candidate clusterings.
	CandidatesTried int
	// CacheHits and CacheMisses report the fingerprint-keyed candidate
	// cache: a hit serves a node's raw candidate list without re-enumerating
	// it. Entries are keyed by the node and the fingerprint of the used rows
	// in its pool, so they survive assignments elsewhere and backtracking —
	// a node is re-enumerated only when the used rows in its pool reach a
	// state not seen before (MinChoice probes every uncolored node before
	// picking one, so the chosen node's candidates are typically served
	// from cache too).
	CacheHits   int
	CacheMisses int
	// WinnerWorker and WinnerStrategy identify the portfolio worker whose
	// coloring ColorPortfolio returned; both are zero for a single search.
	WinnerWorker   int
	WinnerStrategy string
	// Err records why an unsuccessful search stopped early: the context's
	// error on cancellation or deadline expiry, nil when the search space
	// was exhausted, the step budget ran out, or a coloring was found.
	Err error
	// nodeAssigns and nodeBacktracks count per-node search activity, indexed
	// by constraint-graph node. They travel inside Stats so ColorPortfolio
	// can replay the winning worker's counts into the run's tracer (worker
	// per-step events are suppressed while the portfolio races).
	nodeAssigns    []int
	nodeBacktracks []int
}

// Merge folds another search's scalar counters into s. The sharded engine
// sums per-component searches into one run-level Stats; the first non-nil
// Err wins (per-node slices are not merged — replay them with ReplayInto,
// which carries the node remapping the sum would lose).
func (s *Stats) Merge(o Stats) {
	s.Steps += o.Steps
	s.Backtracks += o.Backtracks
	s.CandidatesTried += o.CandidatesTried
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	if s.Err == nil {
		s.Err = o.Err
	}
}

// ReplayInto emits the per-node assign/backtrack counts of a completed
// search into tr as batched KindAssign/KindBacktrack events (Event.N carries
// the count; Span stays 0 — batched replays carry no tree structure). index,
// when non-nil, maps this search's node indexes to positions in a larger
// constraint set, exactly as in DescribeMapped; ColorPortfolio replays its
// winner with a nil index, the sharded engine replays each component with
// the component's index list.
func (s Stats) ReplayInto(tr trace.Tracer, index []int) {
	if tr == nil || tr == trace.Nop {
		return
	}
	emit := func(kind trace.EventKind, counts []int) {
		for node, n := range counts {
			if n == 0 {
				continue
			}
			if index != nil {
				node = index[node]
			}
			tr.Trace(trace.Event{Kind: kind, Node: node, N: n})
		}
	}
	emit(trace.KindAssign, s.nodeAssigns)
	emit(trace.KindBacktrack, s.nodeBacktracks)
}

// Options configures the coloring search.
type Options struct {
	Strategy Strategy
	// Rng drives the Basic strategy's random node choice. Required for
	// Basic; ignored by the deterministic strategies.
	Rng *rand.Rand
	// MaxSteps aborts the search after this many assignment attempts; zero
	// means the default of 1,000,000. An aborted search reports no coloring
	// found.
	MaxSteps int
	// Accept, when non-nil, is consulted once all nodes are colored with
	// the total number of rows used by the assignment; returning false
	// rejects the complete coloring and resumes the search. The DIVA driver
	// uses it to avoid leaving a remainder of fewer than k tuples for the
	// off-the-shelf anonymizer.
	Accept func(usedRows int) bool
	// Ctx, when non-nil, cancels the search at step granularity: a canceled
	// or expired context aborts with Stats.Err set to the context's error.
	Ctx context.Context
	// Tracer, when non-nil, receives per-node assign/backtrack,
	// candidate-enumeration and cache-hit events, plus KindProgress
	// heartbeats every HeartbeatEvery steps and once when the search ends.
	// ColorPortfolio suppresses the per-step events for its workers —
	// heartbeats still flow, concurrently — and emits the worker-win event
	// plus the winner's replayed per-node counts itself.
	Tracer trace.Tracer
	// HeartbeatEvery is the step cadence of KindProgress heartbeats; zero
	// means the default of 256 steps. The final heartbeat at search end is
	// emitted regardless.
	HeartbeatEvery int
	// cancel, when non-nil and set, aborts the search; used by
	// ColorPortfolio to stop losing workers.
	cancel *atomic.Bool
	// worker is 1 + the portfolio worker index, or 0 for a sequential
	// search; heartbeats report worker−1 (so −1 means sequential).
	worker int
}

// DefaultHeartbeatEvery is the default KindProgress cadence in search steps.
const DefaultHeartbeatEvery = 256

// Color runs the backtracking coloring (Algorithm 4). It returns the merged
// diverse clustering SΣ and search statistics. found is false when no
// consistent coloring exists within the step budget.
func (g *Graph) Color(opts Options) (sigma cluster.Clustering, stats Stats, found bool) {
	st := g.newState(opts)
	ok := st.color()
	// The final heartbeat carries the search's exact totals, so the run
	// registry and live views show the search's last known state.
	st.emitProgress()
	if !ok {
		return nil, st.stats, false
	}
	return st.sigma(), st.stats, true
}

// newState prepares one search over g with opts' defaults applied. It
// returns the state by value so Color's copy stays on the stack.
func (g *Graph) newState(opts Options) state {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 1_000_000
	}
	if opts.HeartbeatEvery == 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	st := state{
		g:          g,
		assigned:   make([]cluster.Clustering, len(g.Nodes)),
		colored:    make([]bool, len(g.Nodes)),
		used:       rowset.New(g.rel.Len()),
		active:     make(map[uint64]*activeCluster),
		preserve:   make([]int, len(g.Nodes)),
		poolFp:     make([]uint64, len(g.Nodes)),
		candCache:  make(map[candKey]cluster.Windows, 4*len(g.Nodes)),
		passAt:     make([][]int, len(g.Nodes)+1),
		blockCount: make([]int, len(g.Nodes)),
		opts:       opts,
	}
	st.stats.nodeAssigns = make([]int, len(g.Nodes))
	st.stats.nodeBacktracks = make([]int, len(g.Nodes))
	if opts.Rng != nil && opts.Strategy == Basic {
		// One salt draw per search seeds Basic's node choice (see nextNode).
		st.salt = opts.Rng.Uint64()
	}
	if opts.Ctx != nil {
		st.done = opts.Ctx.Done()
	}
	return st
}

// sigma merges the assignment's distinct clusters into SΣ, in node order.
// The rows come from the active entry, which assign sorted: a node sharing
// an identical cluster may hold a different, unsorted slice of the same set.
func (st *state) sigma() cluster.Clustering {
	var sigma cluster.Clustering
	seen := make(map[uint64]bool)
	for _, s := range st.assigned {
		for _, c := range s {
			fp := cluster.Fingerprint(c)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			sigma = append(sigma, st.active[fp].rows)
		}
	}
	return sigma
}

// activeCluster tracks one distinct cluster currently used by the partial
// assignment, with a reference count (several nodes may share an identical
// cluster). rows is sorted ascending (see assign).
type activeCluster struct {
	rows []int
	refs int
}

type state struct {
	g        *Graph
	assigned []cluster.Clustering
	colored  []bool
	nColored int
	// used is the bitset of rows claimed by the active clusters. Its Zobrist
	// fingerprint is maintained incrementally across assign/unassign and
	// seeds Basic's node choice.
	used *rowset.Set
	// poolFp[j] is the Zobrist fingerprint of used ∩ pools[j], the part of
	// the used-row set node j's enumeration reads; assign and unassign XOR
	// in the rows of every cluster they (de)activate that lie in the pool.
	// It keys node j's candidate cache.
	poolFp []uint64
	// active maps a cluster fingerprint to the active cluster it identifies
	// (several nodes may share an identical cluster).
	active map[uint64]*activeCluster
	// preserve[j] is the number of occurrences of constraint j's target
	// preserved by the distinct active clusters.
	preserve []int
	// candCache memoizes raw candidate enumerations, as windows, keyed by
	// the node and its poolFp entry. Enumeration reads the used-row set
	// only through the node's pool rows, so it is a pure function of the
	// node and used ∩ pool: an entry stays valid while assignments claim
	// rows outside the pool, and across backtracking. MinChoice probes every
	// uncolored node before picking one, and an assignment re-enumerates
	// only the nodes whose pools it touches. The cache is cleared wholesale
	// if it ever exceeds maxCandCacheEntries.
	candCache map[candKey]cluster.Windows
	// passAt reuses one buffer per visit depth for the indexes of the
	// enumerated candidates that pass the upper-bound check.
	passAt [][]int
	// blockCount is candidatesFor's reusable scratch counting, per node, how
	// many candidates of the current visit the node's upper bound rejected;
	// the maximum entry names the visit's dominant blocker.
	blockCount []int
	// spanSeq and spanStack maintain search-tree span identities for the
	// tracer: each assignment opens a span (unique, monotone id) whose parent
	// is the enclosing assignment's span, and the matching backtrack closes
	// it. Maintained only when a tracer is attached.
	spanSeq   uint64
	spanStack []uint64
	// salt seeds Basic's state-pure node choice, drawn once per search.
	salt uint64
	// done is the context's cancellation channel (nil when no context).
	done    <-chan struct{}
	opts    Options
	stats   Stats
	aborted bool
}

// candKey identifies one cached enumeration: the node and the fingerprint
// of the used rows in its pool it was enumerated against.
type candKey struct {
	node int
	fp   uint64
}

// maxCandCacheEntries bounds candCache; deep searches over many used-states
// would otherwise grow it without limit. Exceeding it drops the whole cache
// (entries are cheap to rebuild — one enumeration each).
const maxCandCacheEntries = 4096

// canceled polls the portfolio stop flag and the context; it latches into
// aborted so an interrupted search unwinds without further work.
func (st *state) canceled() bool {
	if st.aborted {
		return true
	}
	if st.opts.cancel != nil && st.opts.cancel.Load() {
		st.aborted = true
		return true
	}
	if st.done != nil {
		select {
		case <-st.done:
			st.aborted = true
			st.stats.Err = st.opts.Ctx.Err()
			return true
		default:
		}
	}
	return false
}

// rawCandidates returns node v's candidate enumeration against the current
// used-row set, served from the cache when v was enumerated before against
// the same used rows in its pool. The windows are private to this search:
// a portfolio worker never reads another's.
func (st *state) rawCandidates(v int) cluster.Windows {
	key := candKey{node: v, fp: st.poolFp[v]}
	if w, ok := st.candCache[key]; ok {
		st.stats.CacheHits++
		if st.opts.Tracer != nil {
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindCacheHit, Node: v, N: w.Len(), Parent: st.topSpan(), Depth: st.nColored})
		}
		return w
	}
	w := st.g.Nodes[v].Enum.Windows(st.opts.Ctx, st.used)
	if len(st.candCache) >= maxCandCacheEntries {
		clear(st.candCache)
	}
	st.candCache[key] = w
	st.stats.CacheMisses++
	if st.opts.Tracer != nil {
		st.opts.Tracer.Trace(trace.Event{Kind: trace.KindCandidates, Node: v, N: w.Len(), Parent: st.topSpan(), Depth: st.nColored})
	}
	return w
}

// visit aggregates one node-visit's candidate accounting, reported on the
// KindExhausted event when the visit runs dry: how many candidates were
// considered, why the consistency check rejected the ones it did, and which
// node's upper bound did most of the rejecting.
type visit struct {
	// enumerated counts the candidates considered at this visit: the raw
	// enumeration against the current used-row set plus the shared-cluster
	// proposals that fell within the node's bounds.
	enumerated int
	// rejUpper counts consistency-check rejections, all upper-bound
	// violations (see upperBlocker).
	rejUpper int
	// blocker is the node whose upper bound rejected the most candidates
	// (−1 when rejUpper is 0).
	blocker int
}

// candidates is one visit's candidate list: the shared proposals, then the
// enumerated windows that passed the upper-bound check, by index.
type candidates struct {
	shared []cluster.Clustering
	w      cluster.Windows
	pass   []int
}

func (c candidates) len() int { return len(c.shared) + len(c.pass) }

// at returns candidate n, materializing an enumerated window's rows: only
// the candidates the search assigns are ever copied out of the key table.
func (c candidates) at(n int) cluster.Clustering {
	if n < len(c.shared) {
		return c.shared[n]
	}
	return c.w.Clustering(c.pass[n-len(c.shared)])
}

// candidatesFor regenerates node v's candidates against the rows still
// available and filters them through the upper-bound consistency check.
// Clusters already assigned to other nodes may be shared when they lie
// inside v's target set ("for every pair of clusters … either disjoint or
// equal", Section 3.2); shared candidates come first since they cost no
// additional suppression. The returned visit records the rejection
// breakdown for exhaustion reporting.
func (st *state) candidatesFor(v int) (candidates, visit) {
	vs := visit{blocker: -1}
	node := st.g.Nodes[v]
	cs := candidates{shared: st.sharedCandidates(node), w: st.rawCandidates(v)}
	vs.enumerated = len(cs.shared) + cs.w.Len()
	// Blocker attribution feeds the KindExhausted event; the scratch
	// bookkeeping is skipped when no tracer is attached.
	traced := st.opts.Tracer != nil
	if traced {
		clear(st.blockCount)
	}
	pass := st.passAt[st.nColored][:0]
	for i := 0; i < cs.w.Len(); i++ {
		st.stats.CandidatesTried++
		if blocker := st.upperBlocker(cs.w, i); blocker < 0 {
			pass = append(pass, i)
		} else {
			vs.rejUpper++
			if traced {
				st.blockCount[blocker]++
			}
		}
	}
	st.passAt[st.nColored], cs.pass = pass, pass
	if traced {
		best := 0
		for j, c := range st.blockCount {
			if c > best {
				best, vs.blocker = c, j
			}
		}
	}
	return cs, vs
}

// sharedCandidates proposes clusterings built from clusters other nodes
// already activated: every active cluster (or combination of active
// clusters) whose preserved occurrences of the node's target land within
// the node's frequency range is a zero-cost color for the node.
func (st *state) sharedCandidates(node *Node) []cluster.Clustering {
	b := node.Bound
	type shared struct {
		rows      []int
		preserved int
	}
	var usable []shared
	for _, ac := range st.active {
		if p := preservedIn(st.g.rel, b, ac.rows); p > 0 {
			usable = append(usable, shared{rows: ac.rows, preserved: p})
		}
	}
	// Map iteration order is random; keep the search deterministic. Active
	// clusters are sorted and pairwise disjoint, so rows[0] — each cluster's
	// smallest row — is a unique key.
	slices.SortFunc(usable, func(x, y shared) int { return cmp.Compare(x.rows[0], y.rows[0]) })
	var out []cluster.Clustering
	// Single shared clusters.
	for _, s := range usable {
		st.stats.CandidatesTried++
		if s.preserved >= b.Lower && s.preserved <= b.Upper {
			out = append(out, cluster.Clustering{s.rows})
		}
	}
	// Greedy combination of all usable shared clusters.
	if len(usable) > 1 {
		var combo cluster.Clustering
		total := 0
		for _, s := range usable {
			if total+s.preserved > b.Upper {
				continue
			}
			combo = append(combo, s.rows)
			total += s.preserved
		}
		st.stats.CandidatesTried++
		if len(combo) > 1 && total >= b.Lower && total <= b.Upper {
			out = append(out, combo)
		}
	}
	return out
}

// color is the recursive Coloring routine (Algorithm 4): chronological
// backtracking over each visited node's candidates, in order.
func (st *state) color() bool {
	if st.nColored == len(st.g.Nodes) {
		// All nodes colored; lower bounds hold by construction (each node's
		// own clustering preserves ≥ λl occurrences) and upper bounds were
		// enforced on every assignment.
		return st.opts.Accept == nil || st.opts.Accept(st.used.Len())
	}
	if st.canceled() {
		return false
	}
	v := st.nextNode()
	cands, vs := st.candidatesFor(v)
	descended := 0
	for n := 0; n < cands.len(); n++ {
		st.stats.Steps++
		if st.stats.Steps > st.opts.MaxSteps {
			st.aborted = true
			return false
		}
		if st.stats.Steps%st.opts.HeartbeatEvery == 0 {
			st.emitProgress()
		}
		if st.canceled() {
			return false
		}
		descended++
		cand := cands.at(n)
		st.assign(v, cand)
		st.stats.nodeAssigns[v]++
		if st.opts.Tracer != nil {
			parent := st.topSpan()
			st.spanSeq++
			st.spanStack = append(st.spanStack, st.spanSeq)
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindAssign, Node: v, Span: st.spanSeq, Parent: parent, Depth: st.nColored})
		}
		if st.color() {
			return true
		}
		st.unassign(v, cand)
		st.stats.Backtracks++
		st.stats.nodeBacktracks[v]++
		if st.opts.Tracer != nil {
			span := st.topSpan()
			st.spanStack = st.spanStack[:len(st.spanStack)-1]
			st.opts.Tracer.Trace(trace.Event{Kind: trace.KindBacktrack, Node: v, Span: span, Parent: st.topSpan(), Depth: st.nColored})
		}
		if st.aborted {
			return false
		}
	}
	// The visit ran out of candidates: every one was rejected up front or
	// descended into and backtracked out of. Report why, so profilers can
	// attribute the retreat to concrete constraints.
	if st.opts.Tracer != nil {
		st.opts.Tracer.Trace(trace.Event{
			Kind:          trace.KindExhausted,
			Node:          v,
			N:             descended,
			Parent:        st.topSpan(),
			Depth:         st.nColored,
			Enumerated:    vs.enumerated,
			RejectedUpper: vs.rejUpper,
			Blocker:       vs.blocker,
		})
	}
	return false
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// topSpan returns the innermost open search-tree span (0 at the root).
func (st *state) topSpan() uint64 {
	if n := len(st.spanStack); n > 0 {
		return st.spanStack[n-1]
	}
	return 0
}

// emitProgress sends a KindProgress heartbeat carrying the search's
// cumulative counters, its current depth and the emitting worker.
func (st *state) emitProgress() {
	if st.opts.Tracer == nil {
		return
	}
	s := &st.stats
	st.opts.Tracer.Trace(trace.Event{
		Kind:        trace.KindProgress,
		Steps:       s.Steps,
		Backtracks:  s.Backtracks,
		Candidates:  s.CandidatesTried,
		CacheHits:   s.CacheHits,
		CacheMisses: s.CacheMisses,
		Depth:       st.nColored,
		Worker:      st.opts.worker - 1,
	})
}

// nextNode implements NextNode for the three strategies.
func (st *state) nextNode() int {
	switch st.opts.Strategy {
	case MinChoice:
		best, bestCount := -1, -1
		for i := range st.g.Nodes {
			if st.colored[i] {
				continue
			}
			count := st.rawCandidates(i).Len()
			if best == -1 || count < bestCount {
				best, bestCount = i, count
			}
		}
		return best
	case MaxFanOut:
		best, bestFan := -1, -1
		for i, node := range st.g.Nodes {
			if st.colored[i] {
				continue
			}
			fan := 0
			for _, n := range node.Neighbors {
				if !st.colored[n] {
					fan++
				}
			}
			if fan > bestFan {
				best, bestFan = i, fan
			}
		}
		return best
	default: // Basic
		var uncolored []int
		for i := range st.g.Nodes {
			if !st.colored[i] {
				uncolored = append(uncolored, i)
			}
		}
		if st.opts.Rng != nil {
			// State-pure random choice: hash the per-search salt with the
			// current used-row fingerprint and depth instead of consuming
			// the Rng stream per visit. The choice stays pseudorandom across
			// salts and is a pure function of the search state. Every pinned
			// Basic output depends on this exact hash, so it stays as is.
			h := mix64(st.salt ^ st.used.Fingerprint() ^ uint64(st.nColored)<<32 ^ uint64(len(uncolored)))
			return uncolored[h%uint64(len(uncolored))]
		}
		return uncolored[0]
	}
}

// upperBlocker checks enumerated candidate i of w against the current
// partial assignment and returns the first node whose upper bound it would
// exceed, or −1 when it is consistent — the attribution the infeasibility
// explainer aggregates. Of the two search conditions of Section 3.2 only
// the upper bounds need checking: every window is drawn from rows no
// active cluster holds, so each of its clusters is new and disjoint from
// all active ones (the disjoint-or-equal rule). Shared proposals are the
// "equal" case: active clusters themselves, adding no new occurrences.
func (st *state) upperBlocker(w cluster.Windows, i int) int {
	for j, node := range st.g.Nodes {
		if add := w.Preserved(i, node.Bound); add > 0 && st.preserve[j]+add > node.Bound.Upper {
			return j
		}
	}
	return -1
}

func (st *state) assign(v int, cand cluster.Clustering) {
	st.assigned[v] = cand
	st.colored[v] = true
	st.nColored++
	for _, c := range cand {
		fp := cluster.Fingerprint(c)
		if ac, ok := st.active[fp]; ok {
			ac.refs++
			continue
		}
		// Candidates arrive in enumeration order; sort once, on activation.
		// A new cluster was materialized for this assignment alone (see
		// candidates.at), so sorting in place is private to it.
		slices.Sort(c)
		st.active[fp] = &activeCluster{rows: c, refs: 1}
		st.used.AddSlice(c) // incremental fingerprint update
		for j, node := range st.g.Nodes {
			st.preserve[j] += preservedIn(st.g.rel, node.Bound, c)
			st.poolFp[j] ^= st.g.pools[j].FingerprintIn(c)
		}
	}
}

func (st *state) unassign(v int, cand cluster.Clustering) {
	st.assigned[v] = nil
	st.colored[v] = false
	st.nColored--
	for _, c := range cand {
		fp := cluster.Fingerprint(c)
		ac := st.active[fp]
		ac.refs--
		if ac.refs > 0 {
			continue
		}
		delete(st.active, fp)
		st.used.RemoveSlice(c)
		for j, node := range st.g.Nodes {
			st.preserve[j] -= preservedIn(st.g.rel, node.Bound, c)
			st.poolFp[j] ^= st.g.pools[j].FingerprintIn(c)
		}
	}
}

// preservedIn returns the number of occurrences of b's target that
// Suppress would preserve in cluster c: if the cluster is uniform on every
// QI target attribute with exactly the target values, each row matching the
// full target (including sensitive target attributes, which are never
// suppressed) contributes one occurrence; otherwise the QI target cells are
// suppressed (or hold other values) and the cluster contributes none.
func preservedIn(rel *relation.Relation, b *constraint.Bound, c []int) int {
	if len(c) == 0 {
		return 0
	}
	schema := rel.Schema()
	for idx, a := range b.Attrs {
		if schema.Attr(a).Role != relation.QI {
			continue
		}
		for _, row := range c {
			if rel.Code(row, a) != b.Codes[idx] {
				return 0
			}
		}
	}
	n := 0
	for _, row := range c {
		if b.Matches(rel.Row(row)) {
			n++
		}
	}
	return n
}
