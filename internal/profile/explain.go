package profile

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Culprit is one constraint implicated in a coloring failure, ranked by how
// often its candidate pool ran dry and how often other nodes' upper-bound
// checks blamed it.
type Culprit struct {
	Node           int     `json:"node"`
	Label          string  `json:"label,omitempty"`
	Exhaustions    int     `json:"exhaustions"`
	ZeroEnum       int     `json:"zero_enumerations"`
	RejectedUpper  int     `json:"rejected_upper"`
	Blamed         int     `json:"blamed"`
	Backtracks     int     `json:"backtracks"`
	ConflictDegree float64 `json:"conflict_degree"`
}

// FrontierNode is one entry of the dominant backtrack frontier: the depths
// at which the search most often gave up, identifying the layer of the tree
// where progress stalled.
type FrontierNode struct {
	Depth      int `json:"depth"`
	Backtracks int `json:"backtracks"`
}

// Explanation attributes a coloring failure (or an expensive success) to
// concrete constraints. Verdict is one of:
//
//   - "exhausted": the last failing node enumerated zero candidates — the
//     instance is infeasible at that node regardless of pruning (within the
//     engine's candidate generation).
//   - "upper-bound-pruned": candidates existed but every one was rejected by
//     the upper-bound consistency check — the engine is conservative outside
//     the completeness envelope (see the differential oracle, PR 4), so this
//     is *not* a proof of true infeasibility.
//   - "subtree-exhausted": every enumerated candidate was assigned and its
//     subtree failed — the cause lies deeper; the culprit ranking names it.
//   - "" when the run did not fail (no exhaustion was recorded).
type Explanation struct {
	RunID    uint64         `json:"run_id,omitempty"`
	Outcome  string         `json:"outcome,omitempty"`
	Verdict  string         `json:"verdict,omitempty"`
	Last     *Exhaustion    `json:"last_exhaustion,omitempty"`
	Culprits []Culprit      `json:"culprits,omitempty"`
	Frontier []FrontierNode `json:"frontier,omitempty"`
	Hottest  []Culprit      `json:"-"`

	Steps      int           `json:"steps"`
	Backtracks int           `json:"backtracks"`
	Wall       time.Duration `json:"wall_ns"`
}

// Explain derives an infeasibility explanation from a finished profile. It
// is meaningful after a failed run but safe to call on any profile; with no
// recorded exhaustion the verdict is empty and only the search totals are
// populated.
func (p *Profile) Explain() *Explanation {
	m := p.runMetrics()
	ex := &Explanation{
		RunID:      m.RunID,
		Outcome:    p.Outcome,
		Steps:      m.Steps,
		Backtracks: m.Backtracks,
		Wall:       p.Duration,
	}
	if p.LastExhaustion != nil {
		last := *p.LastExhaustion
		ex.Last = &last
		switch {
		case last.Enumerated == 0:
			ex.Verdict = "exhausted"
		case last.RejectedUpper == 0:
			ex.Verdict = "subtree-exhausted"
		default:
			ex.Verdict = "upper-bound-pruned"
		}
	}

	for i := range p.Nodes {
		ns := &p.Nodes[i]
		if ns.Exhaustions == 0 && ns.Blamed == 0 {
			continue
		}
		ex.Culprits = append(ex.Culprits, Culprit{
			Node:           ns.Node,
			Label:          ns.Label,
			Exhaustions:    ns.Exhaustions,
			ZeroEnum:       ns.ZeroEnumerations,
			RejectedUpper:  ns.RejectedUpper,
			Blamed:         ns.Blamed,
			Backtracks:     ns.Backtracks,
			ConflictDegree: ns.ConflictDegree,
		})
	}
	sort.SliceStable(ex.Culprits, func(a, b int) bool {
		ca, cb := &ex.Culprits[a], &ex.Culprits[b]
		if ca.Exhaustions != cb.Exhaustions {
			return ca.Exhaustions > cb.Exhaustions
		}
		if ca.Blamed != cb.Blamed {
			return ca.Blamed > cb.Blamed
		}
		if ca.Backtracks != cb.Backtracks {
			return ca.Backtracks > cb.Backtracks
		}
		return ca.Node < cb.Node
	})
	if len(ex.Culprits) > 8 {
		ex.Culprits = ex.Culprits[:8]
	}

	depths := make(map[int]int)
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.Backtracked && s.Node >= 0 {
			depths[s.Depth]++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	for d, n := range depths {
		ex.Frontier = append(ex.Frontier, FrontierNode{Depth: d, Backtracks: n})
	}
	sort.Slice(ex.Frontier, func(a, b int) bool {
		fa, fb := ex.Frontier[a], ex.Frontier[b]
		if fa.Backtracks != fb.Backtracks {
			return fa.Backtracks > fb.Backtracks
		}
		return fa.Depth < fb.Depth
	})
	if len(ex.Frontier) > 5 {
		ex.Frontier = ex.Frontier[:5]
	}
	return ex
}

func (e *Explanation) name(c *Culprit) string {
	if c.Label != "" {
		return fmt.Sprintf("σ%d %s", c.Node, c.Label)
	}
	return fmt.Sprintf("σ%d", c.Node)
}

// String renders the explanation for terminal output (diva -explain).
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explain")
	if e.RunID != 0 {
		fmt.Fprintf(&b, " (run %d)", e.RunID)
	}
	if e.Outcome != "" {
		fmt.Fprintf(&b, ": outcome=%s", e.Outcome)
	}
	fmt.Fprintf(&b, " steps=%d backtracks=%d wall=%s\n", e.Steps, e.Backtracks, e.Wall.Round(time.Microsecond))

	switch e.Verdict {
	case "":
		b.WriteString("no candidate exhaustion recorded — the search never ran dry.\n")
		return b.String()
	case "exhausted":
		fmt.Fprintf(&b, "verdict: CANDIDATE EXHAUSTION — the last failing constraint enumerated zero candidate clusterings; the instance is infeasible for the engine's candidate generation.\n")
	case "upper-bound-pruned":
		fmt.Fprintf(&b, "verdict: UPPER-BOUND PRUNING — candidates existed but all were rejected by the upper-bound consistency check; this is conservative pruning outside the completeness envelope, NOT a proof of true infeasibility.\n")
	case "subtree-exhausted":
		fmt.Fprintf(&b, "verdict: SUBTREE EXHAUSTION — every enumerated candidate was tried and its subtree failed; the cause lies deeper, at the culprit constraints below.\n")
	}
	if l := e.Last; l != nil {
		fmt.Fprintf(&b, "last failure: node σ%d at depth %d — enumerated=%d rejected_upper=%d",
			l.Node, l.Depth, l.Enumerated, l.RejectedUpper)
		if l.Blocker >= 0 {
			fmt.Fprintf(&b, " dominant_blocker=σ%d", l.Blocker)
		}
		b.WriteString("\n")
	}
	if len(e.Culprits) > 0 && e.Verdict != "exhausted" {
		if c := &e.Culprits[0]; c.ZeroEnum > 0 {
			fmt.Fprintf(&b, "deepest cause: %s enumerated zero candidates %d time(s) — true candidate exhaustion at that constraint.\n", e.name(c), c.ZeroEnum)
		}
	}
	if len(e.Culprits) > 0 {
		b.WriteString("culprit constraints (by exhaustions, then blame):\n")
		for i := range e.Culprits {
			c := &e.Culprits[i]
			fmt.Fprintf(&b, "  %-32s exhaustions=%-5d zero_enum=%-5d blamed=%-5d rejected_upper=%-6d backtracks=%-6d conflict=%.3f\n",
				e.name(c), c.Exhaustions, c.ZeroEnum, c.Blamed, c.RejectedUpper, c.Backtracks, c.ConflictDegree)
		}
	}
	if len(e.Frontier) > 0 {
		b.WriteString("backtrack frontier (depth: backtracks):")
		for _, f := range e.Frontier {
			fmt.Fprintf(&b, " %d:%d", f.Depth, f.Backtracks)
		}
		b.WriteString("\n")
	}
	return b.String()
}
