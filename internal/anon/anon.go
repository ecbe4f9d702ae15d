// Package anon implements the off-the-shelf k-anonymization baselines the
// paper evaluates against, each rebuilt from its original publication:
//
//   - k-member greedy clustering (Byun, Kamra, Bertino, Li; DASFAA 2007) —
//     also the substrate DIVA's Anonymize step uses;
//   - OKA, the one-pass k-means algorithm (Lin, Wei; PAIS 2008);
//   - Mondrian multidimensional partitioning (LeFevre, DeWitt,
//     Ramakrishnan; ICDE 2006).
//
// All three are exposed as Partitioners: they split a set of tuples into
// clusters of at least k tuples each. Turning a partition into a
// k-anonymous relation is value suppression (Algorithm 2 of the DIVA
// paper), implemented by the core package; keeping the two steps separate
// lets the same metrics compare DIVA and the baselines on equal footing.
package anon

import (
	"context"
	"fmt"

	"diva/internal/relation"
	"diva/internal/trace"
)

// Partitioner groups tuples into clusters of at least k members.
type Partitioner interface {
	// Name returns the algorithm name as used in the paper's figures.
	Name() string
	// Partition splits the given rows of rel into clusters of ≥ k rows.
	// It returns an error when len(rows) > 0 and len(rows) < k, since no
	// legal partition exists. An empty rows slice yields an empty partition.
	// ctx cancels the partitioning at cluster/split granularity: a canceled
	// context makes Partition return ctx.Err() promptly. A nil ctx never
	// cancels.
	Partition(ctx context.Context, rel *relation.Relation, rows []int, k int) ([][]int, error)
}

// TraceSink is implemented by partitioners that can report their internal
// progress as trace events (Mondrian emits trace.KindSplit per recursive
// cut). The engine injects its run tracer into any TraceSink anonymizer
// before the baseline phase, so per-split timings land in the same event
// stream as the coloring search.
type TraceSink interface {
	SetTracer(trace.Tracer)
}

// checkPartitionable validates the common preconditions.
func checkPartitionable(ctx context.Context, rows []int, k int) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if k < 1 {
		return fmt.Errorf("anon: k must be ≥ 1, got %d", k)
	}
	if len(rows) > 0 && len(rows) < k {
		return fmt.Errorf("anon: cannot %d-anonymize %d tuples", k, len(rows))
	}
	return nil
}

// ctxErr is a non-blocking cancellation probe tolerating a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// distancer computes tuple-to-tuple distances over QI attributes: numeric
// attributes contribute |a−b| normalized by the attribute's observed range;
// categorical attributes contribute 0 or 1. Suppressed cells are maximally
// distant from everything (distance 1) unless both cells are suppressed.
type distancer struct {
	rel     *relation.Relation
	qi      []int
	numeric []bool    // parallel to qi
	span    []float64 // parallel to qi; numeric range width, ≥ 1e-9
}

func newDistancer(rel *relation.Relation, rows []int) *distancer {
	schema := rel.Schema()
	qi := schema.QIIndexes()
	d := &distancer{
		rel:     rel,
		qi:      qi,
		numeric: make([]bool, len(qi)),
		span:    make([]float64, len(qi)),
	}
	for i, a := range qi {
		if schema.Attr(a).Kind != relation.Numeric {
			continue
		}
		lo, hi, ok := rel.NumericRange(a, rows)
		if !ok || hi-lo <= 0 {
			continue
		}
		d.numeric[i] = true
		d.span[i] = hi - lo
	}
	return d
}

// dist returns the distance between rows x and y in [0, len(qi)].
func (d *distancer) dist(x, y int) float64 {
	rx, ry := d.rel.Row(x), d.rel.Row(y)
	total := 0.0
	for i, a := range d.qi {
		cx, cy := rx[a], ry[a]
		if cx == cy {
			continue
		}
		if cx == relation.StarCode || cy == relation.StarCode {
			total++
			continue
		}
		if d.numeric[i] {
			vx, okx := d.rel.NumericValue(a, cx)
			vy, oky := d.rel.NumericValue(a, cy)
			if okx && oky {
				diff := vx - vy
				if diff < 0 {
					diff = -diff
				}
				total += diff / d.span[i]
				continue
			}
		}
		total++
	}
	return total
}

// clusterSummary incrementally tracks, per QI attribute, whether a growing
// cluster is still uniform and at which code, enabling O(|QI|) suppression-
// cost deltas (the k-member information-loss metric specialized to the
// suppression model used throughout the paper).
type clusterSummary struct {
	qi      []int
	uniform []bool   // per QI attr: all members share code
	code    []uint32 // the shared code when uniform
	size    int
}

func newClusterSummary(rel *relation.Relation, qi []int, seed int) *clusterSummary {
	cs := &clusterSummary{
		qi:      qi,
		uniform: make([]bool, len(qi)),
		code:    make([]uint32, len(qi)),
		size:    1,
	}
	row := rel.Row(seed)
	for i, a := range qi {
		cs.uniform[i] = true
		cs.code[i] = row[a]
	}
	return cs
}

// addCost returns the increase in suppressed cells if row joined the
// cluster: a still-uniform attribute that row disagrees on suppresses the
// whole column of the cluster (size+1 cells); an already non-uniform
// attribute costs one more cell (row's own).
func (cs *clusterSummary) addCost(rel *relation.Relation, row int) int {
	r := rel.Row(row)
	cost := 0
	for i, a := range cs.qi {
		if cs.uniform[i] {
			if r[a] != cs.code[i] {
				cost += cs.size + 1
			}
		} else {
			cost++
		}
	}
	return cost
}

// add absorbs row into the cluster.
func (cs *clusterSummary) add(rel *relation.Relation, row int) {
	r := rel.Row(row)
	for i, a := range cs.qi {
		if cs.uniform[i] && r[a] != cs.code[i] {
			cs.uniform[i] = false
		}
	}
	cs.size++
}
