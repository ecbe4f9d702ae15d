package verify

import (
	"fmt"

	"diva/internal/constraint"
	"diva/internal/privacy"
	"diva/internal/relation"
)

// DefaultMaxRows is the largest instance BruteForce accepts by default. The
// search space is the set of partitions of the rows into blocks of size ≥ k
// (already ~10⁵ partitions at 12 rows), so the solver is strictly a
// micro-instance oracle.
const DefaultMaxRows = 12

// BruteForceOptions configures the reference solver.
type BruteForceOptions struct {
	// MaxRows caps the instance size; zero means DefaultMaxRows. Instances
	// above the cap are rejected with an error rather than solved slowly.
	MaxRows int
	// Criterion, when non-nil, must hold on every QI-group of a valid
	// output, mirroring the engine's Options.Criterion.
	Criterion privacy.Criterion
}

// Solution is the oracle's verdict on a micro-instance.
type Solution struct {
	// Feasible reports whether any valid (k, Σ)-anonymization of the
	// instance exists. When false, the instance is proven infeasible — the
	// whole solution space was enumerated.
	Feasible bool
	// Stars is the true minimum number of suppressed QI cells over all
	// valid outputs (0 when Feasible is false). It counts every ★ QI cell
	// of the output, those R already holds included, as
	// Result.Metrics.SuppressedCells does.
	Stars int
	// Partition is a witness grouping achieving Stars: blocks of row
	// indexes into the input relation, each of size ≥ k.
	Partition [][]int
	// Output is the witness anonymized relation built from Partition.
	Output *relation.Relation
}

// BruteForce exhaustively solves the (k, Σ)-anonymization-by-suppression
// problem on a micro-instance: find a relation R′ with R ⊑ R′ (QI cells may
// change only to ★), every QI-group of size ≥ k, R′ |= Σ, and the optional
// criterion on every QI-group — minimizing the number of ★ QI cells.
//
// The solver enumerates every partition of the rows into blocks of at least
// k tuples. Each block suppresses exactly the QI attributes its tuples
// disagree on (any k-anonymous suppression output is reproducible this way:
// tuples sharing an output QI vector form such a block), plus, optionally,
// extra whole-block suppression of constraint-target QI attributes — the
// only extra suppression that can ever help, by lowering an occurrence count
// under an upper bound λr. Identifier attributes are always suppressed and
// sensitive values always kept, matching Algorithm 2. Branch-and-bound on
// the monotone base suppression cost keeps enumeration fast at oracle scale.
//
// It returns an error only for misuse (invalid Σ, k < 1, oversized
// instance); an infeasible instance is a successful answer with
// Solution.Feasible == false.
func BruteForce(rel *relation.Relation, sigma constraint.Set, k int, opts BruteForceOptions) (*Solution, error) {
	if k < 1 {
		return nil, fmt.Errorf("verify: k must be ≥ 1, got %d", k)
	}
	maxRows := opts.MaxRows
	if maxRows == 0 {
		maxRows = DefaultMaxRows
	}
	n := rel.Len()
	if n > maxRows {
		return nil, fmt.Errorf("verify: %d rows exceed the brute-force cap of %d", n, maxRows)
	}
	if err := sigma.Validate(); err != nil {
		return nil, err
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		return nil, err
	}
	// Suppression never creates occurrences (values only change to ★), so a
	// lower bound above R's own count is infeasible outright.
	for _, b := range bounds {
		if b.CountIn(rel) < b.Lower {
			return &Solution{}, nil
		}
	}
	if n == 0 {
		return &Solution{Feasible: true, Output: rel.Derive()}, nil
	}
	if n < k {
		return &Solution{}, nil
	}

	s := &bruteSolver{
		rel:    rel,
		bounds: bounds,
		k:      k,
		crit:   opts.Criterion,
		n:      n,
		qi:     rel.Schema().QIIndexes(),
	}
	schema := rel.Schema()
	for i := 0; i < schema.Len(); i++ {
		if schema.Attr(i).Role == relation.Identifier {
			s.ids = append(s.ids, i)
		}
	}
	// repairable[qiIdx] = the target codes of bounds on that QI attribute:
	// extra suppression of attribute qi[qiIdx] in a block uniformly holding
	// one of these codes is the only extra suppression that can change any
	// occurrence count.
	s.repairable = make(map[int][]uint32)
	for _, b := range bounds {
		for t, a := range b.Attrs {
			if schema.Attr(a).Role == relation.QI {
				s.repairable[a] = append(s.repairable[a], b.Codes[t])
			}
		}
	}
	s.enumerate(0, nil)
	if s.best == nil {
		return &Solution{}, nil
	}
	return s.best, nil
}

// bruteSolver carries the enumeration state.
type bruteSolver struct {
	rel    *relation.Relation
	bounds []*constraint.Bound
	k, n   int
	crit   privacy.Criterion
	qi     []int
	ids    []int
	// repairable maps a QI attribute index to the bound target codes on it.
	repairable map[int][]uint32
	blocks     [][]int
	best       *Solution
}

// enumerate assigns row i to an existing block or a fresh one, in the
// canonical order that generates every set partition exactly once, pruning
// branches that cannot beat the best feasible solution or can no longer
// reach blocks of size ≥ k.
func (s *bruteSolver) enumerate(i int, blockCosts []int) {
	if i == s.n {
		deficit := 0
		for _, b := range s.blocks {
			if len(b) < s.k {
				deficit++
			}
		}
		if deficit == 0 {
			s.evaluate()
		}
		return
	}
	// Feasibility prune: every undersized block still needs k−|b| rows, all
	// drawn from the n−i unplaced ones (row i included).
	need := 0
	for _, b := range s.blocks {
		if len(b) < s.k {
			need += s.k - len(b)
		}
	}
	if need > s.n-i {
		return
	}
	// Cost prune: base suppression cost only grows as blocks grow, and extra
	// suppression only adds to it.
	if s.best != nil {
		total := 0
		for _, c := range blockCosts {
			total += c
		}
		if total >= s.best.Stars {
			return
		}
	}
	for bi := range s.blocks {
		s.blocks[bi] = append(s.blocks[bi], i)
		old := blockCosts[bi]
		blockCosts[bi] = s.blockCost(s.blocks[bi])
		s.enumerate(i+1, blockCosts)
		blockCosts[bi] = old
		s.blocks[bi] = s.blocks[bi][:len(s.blocks[bi])-1]
	}
	// A fresh block is only worth opening while k more rows can still fill it.
	if need+s.k <= s.n-i {
		s.blocks = append(s.blocks, []int{i})
		s.enumerate(i+1, append(blockCosts, 0))
		s.blocks = s.blocks[:len(s.blocks)-1]
	}
}

// blockCost returns the base suppression cost of one block: block size times
// the number of QI attributes its tuples disagree on.
func (s *bruteSolver) blockCost(block []int) int {
	disagree := 0
	first := s.rel.Row(block[0])
	for _, a := range s.qi {
		for _, r := range block[1:] {
			if s.rel.Code(r, a) != first[a] {
				disagree++
				break
			}
		}
	}
	return disagree * len(block)
}

// evaluate scores one complete partition: it derives the base suppression
// pattern, then tries every subset of the useful extra whole-block
// suppressions, keeping the cheapest choice whose output passes Σ and the
// criterion.
func (s *bruteSolver) evaluate() {
	type blockPlan struct {
		rows []int
		supp []bool // per s.qi index
	}
	plans := make([]blockPlan, len(s.blocks))
	baseStars := 0
	for bi, block := range s.blocks {
		p := blockPlan{rows: block, supp: make([]bool, len(s.qi))}
		first := s.rel.Row(block[0])
		for qidx, a := range s.qi {
			for _, r := range block[1:] {
				if s.rel.Code(r, a) != first[a] {
					p.supp[qidx] = true
					break
				}
			}
			// A kept attribute still counts the ★ cells R already holds.
			if p.supp[qidx] || first[a] == relation.StarCode {
				baseStars += len(block)
			}
		}
		plans[bi] = p
	}

	// The extra-suppression choices that can change an occurrence count:
	// (block, QI attr) pairs where the block uniformly holds a bound's
	// target code on a target QI attribute.
	type choice struct {
		block, qidx, cost int
	}
	var choices []choice
	for bi, p := range plans {
		for qidx, a := range s.qi {
			if p.supp[qidx] {
				continue
			}
			code := s.rel.Code(p.rows[0], a)
			for _, target := range s.repairable[a] {
				if code == target {
					choices = append(choices, choice{bi, qidx, len(p.rows)})
					break
				}
			}
		}
	}

	output := s.rel.Derive()
	row := make([]uint32, s.rel.Schema().Len())
	for mask := 0; mask < 1<<len(choices); mask++ {
		stars := baseStars
		for ci, c := range choices {
			if mask&(1<<ci) != 0 {
				stars += c.cost
			}
		}
		if s.best != nil && stars >= s.best.Stars {
			continue
		}
		// Build the candidate output.
		output.Truncate()
		for bi, p := range plans {
			extra := make([]bool, len(s.qi))
			for ci, c := range choices {
				if c.block == bi && mask&(1<<ci) != 0 {
					extra[c.qidx] = true
				}
			}
			for _, r := range p.rows {
				copy(row, s.rel.Row(r))
				for qidx, a := range s.qi {
					if p.supp[qidx] || extra[qidx] {
						row[a] = relation.StarCode
					}
				}
				for _, a := range s.ids {
					row[a] = relation.StarCode
				}
				output.AppendCodes(row)
			}
		}
		if !s.valid(output) {
			continue
		}
		sol := &Solution{Feasible: true, Stars: stars, Output: output.Clone()}
		// Blocks collect rows in index order, so each is already sorted.
		sol.Partition = make([][]int, len(s.blocks))
		for bi, block := range s.blocks {
			sol.Partition[bi] = append([]int(nil), block...)
		}
		s.best = sol
	}
}

// valid checks a candidate output against Σ and the criterion. k-anonymity
// holds by construction (blocks of ≥ k tuples are uniform on every QI
// attribute after suppression, and QI-groups only merge blocks), but merged
// QI-groups must still be re-checked against a non-monotone criterion.
func (s *bruteSolver) valid(output *relation.Relation) bool {
	for _, b := range s.bounds {
		n := b.CountIn(output)
		if n < b.Lower || n > b.Upper {
			return false
		}
	}
	if s.crit != nil {
		if ok, _ := privacy.Satisfies(output, s.crit); !ok {
			return false
		}
	}
	return true
}
