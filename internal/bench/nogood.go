package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"diva/internal/constraint"
	"diva/internal/core"
	"diva/internal/dataset"
	"diva/internal/search"
	"diva/internal/verify"
)

// nogoodRows is the fixed relation size of the nogood study. The fixture is
// deliberately NOT scaled with Config.Scale: the conflict structure
// (verify.DenseCensusSigma) is anchored on the census profile's
// value-support distribution at this size, and rescaling would dissolve the
// infeasible core the experiment measures.
const nogoodRows = 400

// nogoodIndependents is how many independent cluster-forcing EDUCATION
// constraints pad the conflict core. Each contributes a multiplicative
// factor to chronological search's thrashing and nothing to the conflict
// itself — which is exactly what conflict-directed backjumping skips.
const nogoodIndependents = 5

// nogoodMaxSteps caps each measured run. Chronological search on the fixture
// needs several hundred thousand visits to prove infeasibility; the cap is
// high enough for every strategy the table reports to reach its verdict.
const nogoodMaxSteps = 500_000

// NogoodBench measures conflict-driven nogood learning against chronological
// backtracking on the dense-conflict census fixture: same relation, same Σ,
// same seed, each strategy run with learning off and on. Reported per
// strategy: node visits (search steps) in each mode, the visit reduction
// factor, and the learning run's nogood/backjump counts. Both runs must
// reach the same verdict — learning that changed an answer would be a bug,
// not a speedup — and the experiment errors if they diverge.
func NogoodBench(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	rel := dataset.CensusSized(nogoodRows).Generate(nogoodRows, cfg.Seed)
	k := cfg.K
	sigma, ok := verify.DenseCensusSigma(rel, k, nogoodIndependents)
	if !ok {
		return nil, fmt.Errorf("bench: no REGION value with per-sex support > %d at |R|=%d", k, rel.Len())
	}
	bounds, err := sigma.Bind(rel)
	if err != nil {
		return nil, err
	}
	cf := constraint.SetConflict(rel, bounds)
	table := &Table{
		ID:      "nogood",
		Title:   fmt.Sprintf("Nogood learning vs chronological backtracking (Census, |R|=%d)", rel.Len()),
		XLabel:  "strategy",
		YLabel:  "node visits",
		Columns: []string{"visits (chron)", "visits (nogoods)", "reduction (x)", "nogoods", "backjumps", "runtime chron (s)", "runtime nogoods (s)"},
		Notes: []string{
			fmt.Sprintf("dense-conflict fixture: |Sigma|=%d, k=%d, cf(Sigma)=%.2f — an infeasible 3-constraint core padded with %d independent cluster-forcing constraints", len(sigma), k, cf, len(sigma)-3),
			fmt.Sprintf("MaxSteps=%d per run; both modes must reach the same verdict", nogoodMaxSteps),
		},
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = nogoodMaxSteps
	}
	for _, strat := range []search.Strategy{search.MinChoice, search.MaxFanOut} {
		var steps [2]float64
		var secs [2]float64
		var feasible [2]bool
		var learned, backjumps int
		for i, nogoods := range []bool{false, true} {
			rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xabcdef12345))
			start := time.Now()
			res, err := core.Anonymize(context.Background(), rel, sigma, core.Options{
				K:        k,
				Strategy: strat,
				Rng:      rng,
				MaxSteps: maxSteps,
				Nogoods:  nogoods,
			})
			secs[i] = time.Since(start).Seconds()
			feasible[i] = err == nil
			steps[i] = float64(res.Stats.Steps)
			if nogoods {
				learned = res.Stats.NogoodsLearned
				backjumps = res.Stats.Backjumps
			}
		}
		if feasible[0] != feasible[1] {
			return nil, fmt.Errorf("bench: nogood learning changed the %s verdict (chron feasible=%v, nogoods feasible=%v)",
				strat, feasible[0], feasible[1])
		}
		reduction := 0.0
		if steps[1] > 0 {
			reduction = steps[0] / steps[1]
		}
		cfg.logf("  nogood %s: %0.f visits chron, %0.f with learning (%.1fx), %d nogoods, %d backjumps",
			strat, steps[0], steps[1], reduction, learned, backjumps)
		table.Rows = append(table.Rows, Row{X: strat.String(), Values: []float64{
			steps[0], steps[1], reduction, float64(learned), float64(backjumps), secs[0], secs[1],
		}})
	}
	best := 0.0
	for _, r := range table.Rows {
		if r.Values[2] > best {
			best = r.Values[2]
		}
	}
	table.Notes = append(table.Notes, fmt.Sprintf("best node-visit reduction: %.1fx", best))
	return table, nil
}
