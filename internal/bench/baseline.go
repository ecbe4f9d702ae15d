package bench

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"diva/internal/anon"
	"diva/internal/core"
	"diva/internal/relation"
	"diva/internal/verify"
)

// baselineSizes are the unscaled census |R| points of the partitioner
// comparison (the Fig5d sweep's low and high ends).
var baselineSizes = []int{20000, 60000, 120000}

// BaselineBench times the rest-row baseline partitioners head to head on the
// census profile: parallel Mondrian (the engine default), sequential
// Mondrian, and k-member on the signature index.
// Every output is gated through the invariant checker — a run with any
// validation violation fails the experiment, so the table only ever reports
// the cost of correct partitioners.
func BaselineBench(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	variants := []struct {
		name string
		mk   func(rng *rand.Rand) anon.Partitioner
	}{
		{"mondrian-par", func(*rand.Rand) anon.Partitioner { return &anon.Mondrian{} }},
		{"mondrian-seq", func(*rand.Rand) anon.Partitioner { return &anon.Mondrian{Parallelism: 1} }},
		{"k-member-index", func(rng *rand.Rand) anon.Partitioner { return &anon.KMember{Rng: rng} }},
	}
	columns := make([]string, len(variants))
	for i, v := range variants {
		columns[i] = v.name
	}
	table := &Table{
		ID:      "baseline",
		Title:   "Baseline partitioner runtimes (Census)",
		XLabel:  "|R|",
		YLabel:  "runtime (seconds)",
		Columns: columns,
	}
	for _, size := range baselineSizes {
		rows := cfg.scaled(size)
		rel := censusRelation(cfg, rows)
		vals := make([]float64, 0, len(variants))
		for _, v := range variants {
			rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xba5e11))
			secs, err := timedBaseline(rel, v.mk(rng), cfg.K)
			if err != nil {
				return nil, fmt.Errorf("baseline %s |R|=%d: %w", v.name, rows, err)
			}
			cfg.logf("  baseline |R|=%d %s: %.3fs", rows, v.name, secs)
			vals = append(vals, secs)
		}
		table.Rows = append(table.Rows, Row{X: fmt.Sprint(rows), Values: vals})
	}
	last := table.Rows[len(table.Rows)-1]
	if par := last.Values[0]; par > 0 {
		table.Notes = append(table.Notes, fmt.Sprintf(
			"at |R|=%s: mondrian-par is %.1fx faster than k-member-index",
			last.X, last.Values[2]/par))
	}
	return table, nil
}

// timedBaseline runs one k-anonymization over the whole relation — a DIVA
// run with Σ = ∅ — and returns its wall time, erroring unless the invariant
// checker finds zero violations.
func timedBaseline(rel *relation.Relation, p anon.Partitioner, k int) (float64, error) {
	start := time.Now()
	res, err := core.Anonymize(context.Background(), rel, nil, core.Options{K: k, Anonymizer: p})
	secs := time.Since(start).Seconds()
	if err != nil {
		return secs, err
	}
	if rep := verify.ValidateOutput(rel, res.Output, nil, k, verify.Options{}); !rep.OK() {
		return secs, fmt.Errorf("%s output failed validation: %w", p.Name(), rep.Err())
	}
	return secs, nil
}
