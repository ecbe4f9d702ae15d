package bench

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"diva/internal/anon"
	"diva/internal/constraint"
	"diva/internal/dataset"
	"diva/internal/relation"
	"diva/internal/search"
)

// Table4 reproduces the dataset characteristics table: |R|, attribute count
// n, QI projection cardinality |Π_QI(R)| and constraint-set size |Σ| for
// the four (synthetic stand-in) datasets, at full published sizes.
func Table4(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:      "table4",
		Title:   "Data characteristics (synthetic stand-ins; paper values in EXPERIMENTS.md)",
		XLabel:  "dataset",
		YLabel:  "count",
		Columns: []string{"|R|", "n", "|Pi_QI(R)|", "|Sigma|"},
	}
	profiles := dataset.Profiles()
	for _, name := range sortedKeys(profiles) {
		p := profiles[name]
		cfg.logf("table4: generating %s (%d rows)", name, p.DefaultRows)
		rel := p.Generator.Generate(p.DefaultRows, cfg.Seed)
		qi := rel.Schema().QIIndexes()
		t.Rows = append(t.Rows, Row{X: name, Values: []float64{
			float64(rel.Len()),
			float64(rel.Schema().Len()),
			float64(rel.DistinctCount(qi)),
			float64(p.TableSigma),
		}})
	}
	return t, nil
}

// Table5 reproduces the parameter grid with defaults.
func Table5(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	t := &Table{
		ID:      "table5",
		Title:   "Parameter values (defaults marked by the harness defaults column)",
		XLabel:  "parameter",
		YLabel:  "values",
		Columns: []string{"default"},
		Notes: []string{
			"|R| in {60k, 120k, 180k, 240k, 300k} x scale=" + fmt.Sprintf("%g", cfg.Scale),
			"|Sigma| in {4, 8, 12, 16, 20}",
			"cf(Sigma) in {0, 0.2, 0.4, 0.6, 0.8, 1}",
			"k in {10, 20, 30, 40, 50}",
		},
	}
	t.Rows = []Row{
		{X: "|R|", Values: []float64{float64(cfg.scaled(60000))}},
		{X: "|Sigma|", Values: []float64{float64(cfg.NumConstraints)}},
		{X: "cf(Sigma)", Values: []float64{0}},
		{X: "k", Values: []float64{float64(cfg.K)}},
	}
	return t, nil
}

// sigmaSweep is the |Σ| x-axis of Figures 4a and 4b.
var sigmaSweep = []int{4, 8, 12, 16, 20}

// runSigmaSweep produces both runtime and accuracy series over |Σ| on the
// Census profile (Figures 4a/4b share the sweep; each figure extracts one
// measure).
func runSigmaSweep(cfg Config) (runtime, accuracy *Table, err error) {
	cfg = cfg.WithDefaults()
	rows := cfg.scaled(60000)
	rel := censusRelation(cfg, rows)
	mk := func(id, title, ylabel string) *Table {
		return &Table{
			ID: id, Title: title, XLabel: "|Sigma|", YLabel: ylabel,
			Columns: strategyColumns(),
			Notes:   []string{fmt.Sprintf("census profile, |R|=%d (scale %g), k=%d", rows, cfg.Scale, cfg.K)},
		}
	}
	runtime = mk("fig4a", "Runtime vs |Sigma| (Census)", "seconds")
	accuracy = mk("fig4b", "Accuracy vs |Sigma| (Census)", "accuracy")
	for _, ns := range sigmaSweep {
		sigma, err := proportionalSigma(rel, ns, cfg.K, cfg.Seed+uint64(ns))
		if err != nil {
			return nil, nil, fmt.Errorf("fig4a/b |Σ|=%d: %w", ns, err)
		}
		rrow := Row{X: fmt.Sprint(ns)}
		arow := Row{X: fmt.Sprint(ns)}
		for _, strat := range strategies {
			acc, secs := runDIVA(rel, sigma, cfg.K, strat, cfg, cfg.Seed+uint64(ns))
			cfg.logf("fig4a/b |Sigma|=%d %s: accuracy=%.4f runtime=%.2fs", ns, strat, acc, secs)
			rrow.Values = append(rrow.Values, secs)
			arow.Values = append(arow.Values, acc)
		}
		runtime.Rows = append(runtime.Rows, rrow)
		accuracy.Rows = append(accuracy.Rows, arow)
	}
	return runtime, accuracy, nil
}

// Fig4a reproduces runtime vs |Σ| on Census for the three strategies.
func Fig4a(cfg Config) (*Table, error) {
	rt, _, err := runSigmaSweep(cfg)
	return rt, err
}

// Fig4b reproduces accuracy vs |Σ| on Census for the three strategies.
func Fig4b(cfg Config) (*Table, error) {
	_, acc, err := runSigmaSweep(cfg)
	return acc, err
}

// conflictSweep is the cf x-axis of Figure 4c.
var conflictSweep = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// fig4cCoverage is the per-constraint coverage demand of the conflict
// study: higher than the default 0.1 so that constraints contesting the
// same target tuples visibly compete for cluster rows.
const fig4cCoverage = 0.3

// fig4cCoupling is the OCCUPATION↔INDUSTRY coupling of the conflict
// study's fixed relation. Deliberately below 1: fully coupled attributes
// give matched constraint pairs *identical* target sets, which the search
// then serves with shared clusters at zero extra cost (the
// disjoint-or-equal rule of Section 3.2); at 0.9 the pairs overlap heavily
// but differ, so they genuinely compete for rows.
const fig4cCoupling = 0.9

// Fig4c reproduces accuracy vs conflict rate on Pantheon. The relation is
// fixed for the whole sweep — dataset.PantheonConflict(fig4cCoupling)
// couples INDUSTRY to OCCUPATION — and only Σ varies: at conflict level t,
// a fraction t of the occupation constraints is paired with the industry
// constraint overlapping ~90% of its tuples (contested targets), the rest
// with industries of unrelated occupations (disjoint targets). The
// measured cf(Σ) therefore tracks the x-axis while data difficulty stays
// constant.
func Fig4c(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	rows := dataset.PantheonRows // pantheon is small; always run it whole
	rel := dataset.PantheonConflict(fig4cCoupling).Generate(rows, cfg.Seed)
	t := &Table{
		ID: "fig4c", Title: "Accuracy vs conflict rate (Pantheon)",
		XLabel: "cf", YLabel: "accuracy",
		Columns: strategyColumns(),
		Notes:   []string{fmt.Sprintf("pantheon-conflict profile, |R|=%d, |Sigma|=%d, k=%d, coverage=%.1f", rows, cfg.NumConstraints, cfg.K, fig4cCoverage)},
	}
	for _, cf := range conflictSweep {
		sigma, err := pairedConflictSigma(rel, cfg.NumConstraints, cfg.K, cf)
		if err != nil {
			return nil, fmt.Errorf("fig4c cf=%.1f: %w", cf, err)
		}
		bounds, err := sigma.Bind(rel)
		if err != nil {
			return nil, err
		}
		measured := constraint.SetConflict(rel, bounds)
		row := Row{X: fmt.Sprintf("%.1f", cf)}
		for _, strat := range strategies {
			acc, secs := runDIVA(rel, sigma, cfg.K, strat, cfg, cfg.Seed+uint64(cf*100))
			cfg.logf("fig4c cf=%.1f (measured %.2f) %s: accuracy=%.4f runtime=%.2fs", cf, measured, strat, acc, secs)
			row.Values = append(row.Values, acc)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// pairedConflictSigma builds |Σ| = count constraints as count/2 pairs of
// (occupation, industry) constraints over a relation generated by
// dataset.PantheonConflict(1). A fraction conflictMix of the pairs is
// matched — the industry constraint targets exactly the base occupation's
// tuples — and the rest mismatched (industries of occupations outside the
// base set), so the fraction of contested target tuples tracks conflictMix.
func pairedConflictSigma(rel *relation.Relation, count, k int, conflictMix float64) (constraint.Set, error) {
	schema := rel.Schema()
	occIdx, ok := schema.Index("OCCUPATION")
	if !ok {
		return nil, fmt.Errorf("bench: relation has no OCCUPATION attribute")
	}
	indIdx, ok := schema.Index("INDUSTRY")
	if !ok {
		return nil, fmt.Errorf("bench: relation has no INDUSTRY attribute")
	}
	type vf struct {
		code uint32
		n    int
	}
	var occs []vf
	for code, n := range rel.ValueFrequencies(occIdx) {
		if code != relation.StarCode && n >= 2*k {
			occs = append(occs, vf{code, n})
		}
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].n != occs[j].n {
			return occs[i].n > occs[j].n
		}
		return occs[i].code < occs[j].code
	})
	pairs := count / 2
	need := 2*pairs + count%2 // bases plus spare occupations for mismatches
	if len(occs) < need {
		return nil, fmt.Errorf("bench: need %d occupations with support ≥ %d, have %d", need, 2*k, len(occs))
	}
	matched := int(conflictMix * float64(pairs))
	partial := conflictMix*float64(pairs)-float64(matched) > 0.01 && matched < pairs

	var sigma constraint.Set
	spare := pairs + count%2 // mismatched pairs draw industries from here on
	for i := 0; i < pairs; i++ {
		base := occs[i]
		occ := rel.Dict(occIdx).Value(base.code)
		lo, hi := constraint.CoverageBounds(base.n, k, fig4cCoverage, 0.9)
		sigma = append(sigma, constraint.New("OCCUPATION", occ, lo, hi))

		indOcc := occ
		halfMatched := false
		switch {
		case i < matched:
			// fully matched: the industry constraint contests every tuple
			// of the base occupation.
		case i == matched && partial:
			// partially matched: refine the industry constraint by gender,
			// contesting roughly half of the base occupation's tuples.
			halfMatched = true
		default:
			if spare >= len(occs) {
				return nil, fmt.Errorf("bench: ran out of spare occupations for mismatched pairs")
			}
			indOcc = rel.Dict(occIdx).Value(occs[spare].code)
			spare++
		}
		ind := dataset.IndustryOf(indOcc)
		indCode, ok := rel.Dict(indIdx).Lookup(ind)
		if !ok {
			return nil, fmt.Errorf("bench: coupled industry %q missing (is the relation from PantheonConflict(1)?)", ind)
		}
		if halfMatched {
			genIdx, _ := schema.Index("GEN")
			maleCode, _ := rel.Dict(genIdx).Lookup("Male")
			n := rel.CountMatch([]int{indIdx, genIdx}, []uint32{indCode, maleCode})
			if n >= k {
				ilo, ihi := constraint.CoverageBounds(n, k, fig4cCoverage, 0.9)
				sigma = append(sigma, constraint.NewMulti(
					[]string{"INDUSTRY", "GEN"}, []string{ind, "Male"}, ilo, ihi))
				continue
			}
			// Too little support for the refinement: fall through to a
			// fully matched pair.
		}
		n := rel.Count(indIdx, indCode)
		ilo, ihi := constraint.CoverageBounds(n, k, fig4cCoverage, 0.9)
		sigma = append(sigma, constraint.New("INDUSTRY", ind, ilo, ihi))
	}
	if count%2 == 1 {
		base := occs[pairs]
		occ := rel.Dict(occIdx).Value(base.code)
		lo, hi := constraint.CoverageBounds(base.n, k, fig4cCoverage, 0.9)
		sigma = append(sigma, constraint.New("OCCUPATION", occ, lo, hi))
	}
	return sigma, nil
}

// Fig4d reproduces accuracy vs value distribution on Pop-Syn.
func Fig4d(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	rows := cfg.scaled(dataset.PopSynRows)
	t := &Table{
		ID: "fig4d", Title: "Accuracy vs distribution (Pop-Syn)",
		XLabel: "distribution", YLabel: "accuracy",
		Columns: strategyColumns(),
		Notes:   []string{fmt.Sprintf("pop-syn profile, |R|=%d (scale %g), |Sigma|=%d, k=%d", rows, cfg.Scale, cfg.NumConstraints, cfg.K)},
	}
	for _, dist := range []dataset.Distribution{dataset.Zipfian, dataset.Uniform, dataset.Gaussian} {
		rel := dataset.PopSyn(dist).Generate(rows, cfg.Seed)
		sigma, err := proportionalSigma(rel, cfg.NumConstraints, cfg.K, cfg.Seed+uint64(dist))
		if err != nil {
			return nil, fmt.Errorf("fig4d %s: %w", dist, err)
		}
		row := Row{X: dist.String()}
		for _, strat := range strategies {
			acc, secs := runDIVA(rel, sigma, cfg.K, strat, cfg, cfg.Seed+uint64(dist))
			cfg.logf("fig4d %s %s: accuracy=%.4f runtime=%.2fs", dist, strat, acc, secs)
			row.Values = append(row.Values, acc)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// kSweep is the k x-axis of Figures 5a and 5b.
var kSweep = []int{10, 20, 30, 40, 50}

// comparisonColumns are the series of the baseline comparison figures.
func comparisonColumns() []string {
	return []string{"MinChoice", "MaxFanOut", "k-member", "OKA", "Mondrian"}
}

// runComparison measures DIVA (MinChoice, MaxFanOut) and the three
// baselines on one relation at one k.
func runComparison(rel *relation.Relation, sigma constraint.Set, k int, cfg Config, seed uint64) (accs, times []float64) {
	for _, strat := range []search.Strategy{search.MinChoice, search.MaxFanOut} {
		acc, secs := runDIVA(rel, sigma, k, strat, cfg, seed)
		accs = append(accs, acc)
		times = append(times, secs)
	}
	// Each randomized baseline draws from its own stream, so a change in
	// how many numbers one of them draws cannot move the other's column.
	for _, p := range []anon.Partitioner{
		&anon.KMember{Rng: rand.New(rand.NewPCG(seed^0xbead, seed))},
		&anon.OKA{Rng: rand.New(rand.NewPCG(seed^0x0ca, seed))},
		&anon.Mondrian{},
	} {
		acc, secs := runBaseline(rel, p, k, cfg)
		accs = append(accs, acc)
		times = append(times, secs)
	}
	return accs, times
}

// runKSweep produces accuracy and runtime vs k on the Credit profile.
func runKSweep(cfg Config) (accuracy, runtime *Table, err error) {
	cfg = cfg.WithDefaults()
	rel := dataset.Credit().Generate(dataset.CreditRows, cfg.Seed)
	mk := func(id, title, ylabel string) *Table {
		return &Table{
			ID: id, Title: title, XLabel: "k", YLabel: ylabel,
			Columns: comparisonColumns(),
			Notes:   []string{fmt.Sprintf("credit profile, |R|=%d, |Sigma|=%d", rel.Len(), cfg.NumConstraints)},
		}
	}
	accuracy = mk("fig5a", "Accuracy vs k (Credit)", "accuracy")
	runtime = mk("fig5b", "Runtime vs k (Credit)", "seconds")
	for _, k := range kSweep {
		sigma, err := proportionalSigma(rel, minInt(cfg.NumConstraints, 6), k, cfg.Seed+uint64(k))
		if err != nil {
			return nil, nil, fmt.Errorf("fig5a/b k=%d: %w", k, err)
		}
		accs, times := runComparison(rel, sigma, k, cfg, cfg.Seed+uint64(k))
		cfg.logf("fig5a/b k=%d: acc=%v", k, accs)
		accuracy.Rows = append(accuracy.Rows, Row{X: fmt.Sprint(k), Values: accs})
		runtime.Rows = append(runtime.Rows, Row{X: fmt.Sprint(k), Values: times})
	}
	return accuracy, runtime, nil
}

// Fig5a reproduces accuracy vs k on Credit against the baselines.
func Fig5a(cfg Config) (*Table, error) {
	acc, _, err := runKSweep(cfg)
	return acc, err
}

// Fig5b reproduces runtime vs k on Credit against the baselines.
func Fig5b(cfg Config) (*Table, error) {
	_, rt, err := runKSweep(cfg)
	return rt, err
}

// sizeSweep is the |R| x-axis of Figures 5c and 5d (pre-scaling).
var sizeSweep = []int{60000, 120000, 180000, 240000, 300000}

// runSizeSweep produces accuracy and runtime vs |R| on the Census profile.
func runSizeSweep(cfg Config) (accuracy, runtime *Table, err error) {
	cfg = cfg.WithDefaults()
	mk := func(id, title, ylabel string) *Table {
		return &Table{
			ID: id, Title: title, XLabel: "|R|", YLabel: ylabel,
			Columns: comparisonColumns(),
			Notes:   []string{fmt.Sprintf("census profile, scale %g, |Sigma|=%d, k=%d", cfg.Scale, cfg.NumConstraints, cfg.K)},
		}
	}
	accuracy = mk("fig5c", "Accuracy vs |R| (Census)", "accuracy")
	runtime = mk("fig5d", "Runtime vs |R| (Census)", "seconds")
	for _, size := range sizeSweep {
		rows := cfg.scaled(size)
		rel := censusRelation(cfg, rows)
		sigma, err := proportionalSigma(rel, cfg.NumConstraints, cfg.K, cfg.Seed+uint64(size))
		if err != nil {
			return nil, nil, fmt.Errorf("fig5c/d |R|=%d: %w", rows, err)
		}
		accs, times := runComparison(rel, sigma, cfg.K, cfg, cfg.Seed+uint64(size))
		cfg.logf("fig5c/d |R|=%d: acc=%v times=%v", rows, accs, times)
		label := fmt.Sprint(rows)
		accuracy.Rows = append(accuracy.Rows, Row{X: label, Values: accs})
		runtime.Rows = append(runtime.Rows, Row{X: label, Values: times})
	}
	return accuracy, runtime, nil
}

// Fig5c reproduces accuracy vs |R| on Census against the baselines.
func Fig5c(cfg Config) (*Table, error) {
	acc, _, err := runSizeSweep(cfg)
	return acc, err
}

// Fig5d reproduces runtime vs |R| on Census against the baselines.
func Fig5d(cfg Config) (*Table, error) {
	_, rt, err := runSizeSweep(cfg)
	return rt, err
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
