package dataset

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"diva/internal/relation"
)

// Column describes one generated attribute: its schema entry and a value
// generator that may consult previously generated columns of the same row
// (enabling correlated attributes such as city-within-province).
type Column struct {
	Attr relation.Attribute
	// Gen produces the column's value; prior holds the values of all
	// columns to the left, in order.
	Gen func(rng *rand.Rand, prior []string) string
}

// Generator produces relations column by column with a deterministic seed.
type Generator struct {
	Name    string
	Columns []Column
}

// Schema returns the schema the generator produces.
func (g *Generator) Schema() *relation.Schema {
	attrs := make([]relation.Attribute, len(g.Columns))
	for i, c := range g.Columns {
		attrs[i] = c.Attr
	}
	return relation.MustSchema(attrs...)
}

// Generate produces a relation of n tuples using the given seed. Equal
// seeds produce equal relations.
func (g *Generator) Generate(n int, seed uint64) *relation.Relation {
	rel := relation.New(g.Schema())
	rel.Grow(n)
	g.EachRow(n, seed, func(_ int, values []string) error {
		rel.MustAppendValues(values...)
		return nil
	})
	return rel
}

// EachRow streams the same n tuples Generate(n, seed) would materialize,
// invoking fn with each tuple's index and values in schema order. The slice
// is reused between calls; copy it to retain. An error from fn stops the
// generation and is returned verbatim. This is the out-of-core form of
// Generate: cmd/datagen uses it to emit arbitrarily large CSVs in constant
// memory.
func (g *Generator) EachRow(n int, seed uint64, fn func(i int, values []string) error) error {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	row := make([]string, len(g.Columns))
	for i := 0; i < n; i++ {
		for c, col := range g.Columns {
			row[c] = col.Gen(rng, row[:c])
		}
		if err := fn(i, row); err != nil {
			return err
		}
	}
	return nil
}

// CategoricalColumn draws values from a fixed domain under a distribution.
func CategoricalColumn(name string, role relation.Role, dist Distribution, values ...string) Column {
	s := NewSampler(len(values), dist)
	return Column{
		Attr: relation.Attribute{Name: name, Role: role, Kind: relation.Categorical},
		Gen: func(rng *rand.Rand, _ []string) string {
			return values[s.Sample(rng)]
		},
	}
}

// SyntheticColumn draws values from a synthetic domain "prefixN" of the
// given cardinality under a distribution; convenient for the many coded
// attributes of census-style data.
func SyntheticColumn(name string, role relation.Role, dist Distribution, prefix string, cardinality int) Column {
	values := make([]string, cardinality)
	for i := range values {
		values[i] = prefix + strconv.Itoa(i)
	}
	return CategoricalColumn(name, role, dist, values...)
}

// NumericColumn draws integers in [lo, hi] under a distribution over the
// range.
func NumericColumn(name string, role relation.Role, dist Distribution, lo, hi int) Column {
	if hi < lo {
		panic(fmt.Sprintf("dataset: numeric column %s has hi %d < lo %d", name, hi, lo))
	}
	s := NewSampler(hi-lo+1, dist)
	return Column{
		Attr: relation.Attribute{Name: name, Role: role, Kind: relation.Numeric},
		Gen: func(rng *rand.Rand, _ []string) string {
			return strconv.Itoa(lo + s.Sample(rng))
		},
	}
}

// BucketedNumericColumn draws integers like NumericColumn but rounds them
// down to multiples of bucket, keeping the attribute's cardinality low
// (useful to hit a dataset's published QI-projection cardinality).
func BucketedNumericColumn(name string, role relation.Role, dist Distribution, lo, hi, bucket int) Column {
	s := NewSampler(hi-lo+1, dist)
	return Column{
		Attr: relation.Attribute{Name: name, Role: role, Kind: relation.Numeric},
		Gen: func(rng *rand.Rand, _ []string) string {
			v := lo + s.Sample(rng)
			return strconv.Itoa(v - v%bucket)
		},
	}
}

// DependentColumn draws a value whose domain depends on the value of an
// earlier column (by position). Each parent value owns a slice of child
// values; sampling within the child domain follows dist. Unknown parent
// values fall back to the domain registered under "".
func DependentColumn(name string, role relation.Role, dist Distribution, parent int, domains map[string][]string) Column {
	samplers := make(map[string]*Sampler, len(domains))
	for p, vals := range domains {
		samplers[p] = NewSampler(len(vals), dist)
	}
	return Column{
		Attr: relation.Attribute{Name: name, Role: role, Kind: relation.Categorical},
		Gen: func(rng *rand.Rand, prior []string) string {
			p := prior[parent]
			vals, ok := domains[p]
			if !ok {
				p = ""
				vals = domains[p]
			}
			return vals[samplers[p].Sample(rng)]
		},
	}
}

// SequenceColumn produces unique values prefix0, prefix1, ...; used for
// identifier attributes.
func SequenceColumn(name string, prefix string) Column {
	i := 0
	return Column{
		Attr: relation.Attribute{Name: name, Role: relation.Identifier, Kind: relation.Categorical},
		Gen: func(_ *rand.Rand, _ []string) string {
			v := prefix + strconv.Itoa(i)
			i++
			return v
		},
	}
}

// CorrelatedColumn copies the value of an earlier column with probability
// couple, mapping it through derive, and otherwise draws from fallback
// values uniformly. It manufactures controllable value co-occurrence, which
// the conflict-rate experiments exploit.
func CorrelatedColumn(name string, role relation.Role, parent int, couple float64, derive func(string) string, fallback ...string) Column {
	return Column{
		Attr: relation.Attribute{Name: name, Role: role, Kind: relation.Categorical},
		Gen: func(rng *rand.Rand, prior []string) string {
			if rng.Float64() < couple {
				return derive(prior[parent])
			}
			return fallback[rng.IntN(len(fallback))]
		},
	}
}
