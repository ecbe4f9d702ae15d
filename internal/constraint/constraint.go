// Package constraint implements diversity constraints over relations
// (Definition 2.3 of the paper), constraint sets, satisfaction checking,
// target-tuple sets, conflict rates, a textual constraint language, and
// workload generators for the three constraint classes of Stoyanovich et al.
// (minimum frequency, average, proportional representation).
package constraint

import (
	"fmt"
	"sort"
	"strings"

	"diva/internal/relation"
	"diva/internal/rowset"
)

// Constraint is a diversity constraint σ = (X[t], λl, λr): the published
// relation must contain at least Lower and at most Upper tuples whose
// attributes Attrs hold exactly the values Values. A single-attribute
// constraint has len(Attrs) == 1.
type Constraint struct {
	// Attrs are the target attribute names X, parallel to Values.
	Attrs []string
	// Values are the target values t, parallel to Attrs.
	Values []string
	// Lower is λl, the minimum number of occurrences (inclusive).
	Lower int
	// Upper is λr, the maximum number of occurrences (inclusive).
	Upper int
}

// New returns a single-attribute diversity constraint (A[a], lower, upper).
func New(attr, value string, lower, upper int) Constraint {
	return Constraint{Attrs: []string{attr}, Values: []string{value}, Lower: lower, Upper: upper}
}

// NewMulti returns a multi-attribute diversity constraint (X[t], lower,
// upper). attrs and values must be parallel.
func NewMulti(attrs, values []string, lower, upper int) Constraint {
	return Constraint{Attrs: attrs, Values: values, Lower: lower, Upper: upper}
}

// Validate checks structural well-formedness: non-empty parallel target
// lists, unique attributes, and 0 ≤ Lower ≤ Upper.
func (c Constraint) Validate() error {
	if len(c.Attrs) == 0 {
		return fmt.Errorf("constraint: no target attributes")
	}
	if len(c.Attrs) != len(c.Values) {
		return fmt.Errorf("constraint: %d attributes but %d values", len(c.Attrs), len(c.Values))
	}
	seen := make(map[string]bool, len(c.Attrs))
	for _, a := range c.Attrs {
		if a == "" {
			return fmt.Errorf("constraint: empty attribute name")
		}
		if seen[a] {
			return fmt.Errorf("constraint: duplicate target attribute %q", a)
		}
		seen[a] = true
	}
	for i, v := range c.Values {
		if v == relation.Star {
			return fmt.Errorf("constraint: target value for %s is the suppression marker", c.Attrs[i])
		}
	}
	if c.Lower < 0 {
		return fmt.Errorf("constraint: negative lower bound %d", c.Lower)
	}
	if c.Upper < c.Lower {
		return fmt.Errorf("constraint: upper bound %d below lower bound %d", c.Upper, c.Lower)
	}
	return nil
}

// String renders the constraint in the textual constraint language, e.g.
// "ETH[Asian], 2, 5" or "ETH[Asian] CTY[Vancouver], 1, 3".
func (c Constraint) String() string {
	var b strings.Builder
	for i := range c.Attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s[%s]", c.Attrs[i], c.Values[i])
	}
	fmt.Fprintf(&b, ", %d, %d", c.Lower, c.Upper)
	return b.String()
}

// Key returns a canonical identity string for the constraint's target
// (attributes and values, order-normalized), ignoring the bounds.
func (c Constraint) Key() string {
	pairs := make([]string, len(c.Attrs))
	for i := range c.Attrs {
		pairs[i] = c.Attrs[i] + "\x00" + c.Values[i]
	}
	sort.Strings(pairs)
	return strings.Join(pairs, "\x01")
}

// Bound resolves the constraint against a relation's schema and
// dictionaries, producing an efficiently checkable form. Binding fails if a
// target attribute does not exist. A target value that does not occur in the
// relation binds successfully with an empty target set (the constraint is
// then satisfiable only if Lower == 0).
func (c Constraint) Bound(rel *relation.Relation) (*Bound, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	schema := rel.Schema()
	b := &Bound{
		Source: c,
		Attrs:  make([]int, len(c.Attrs)),
		Codes:  make([]uint32, len(c.Attrs)),
		Lower:  c.Lower,
		Upper:  c.Upper,
	}
	for i, name := range c.Attrs {
		idx, ok := schema.Index(name)
		if !ok {
			return nil, fmt.Errorf("constraint: attribute %q not in schema", name)
		}
		b.Attrs[i] = idx
		code, ok := rel.Dict(idx).Lookup(c.Values[i])
		if !ok {
			// The value never occurs: bind with an impossible code so the
			// target set is empty but the constraint remains well formed.
			b.Codes[i] = impossibleCode
			b.unseen = true
			continue
		}
		b.Codes[i] = code
	}
	return b, nil
}

// impossibleCode is a code no dictionary will ever issue in practice (row
// counts and domains in this repository stay far below 2^32-1).
const impossibleCode = ^uint32(0)

// Bound is a Constraint resolved against a concrete relation: attribute
// positions and dictionary codes instead of names and strings.
type Bound struct {
	Source Constraint
	Attrs  []int
	Codes  []uint32
	Lower  int
	Upper  int
	unseen bool
}

// String renders the source constraint.
func (b *Bound) String() string { return b.Source.String() }

// Matches reports whether row (a code vector) holds the target values.
func (b *Bound) Matches(row []uint32) bool {
	for k, a := range b.Attrs {
		if row[a] != b.Codes[k] {
			return false
		}
	}
	return true
}

// CountIn returns the number of tuples of rel holding the target values.
func (b *Bound) CountIn(rel *relation.Relation) int {
	if b.unseen {
		return 0
	}
	return rel.CountMatch(b.Attrs, b.Codes)
}

// SatisfiedBy reports whether rel |= σ (Definition 2.3).
func (b *Bound) SatisfiedBy(rel *relation.Relation) bool {
	n := b.CountIn(rel)
	return n >= b.Lower && n <= b.Upper
}

// TargetRows returns Iσ: the indexes of all tuples of rel holding the
// target values, in row order.
func (b *Bound) TargetRows(rel *relation.Relation) []int {
	if b.unseen {
		return nil
	}
	return rel.MatchingRows(b.Attrs, b.Codes)
}

// TargetSet returns Iσ as a bitset over rel's rows: the engine's shared
// row-set representation of the target tuple set. Prefer this over
// TargetRows on paths doing set algebra (overlap, disjointness, Jaccard).
func (b *Bound) TargetSet(rel *relation.Relation) *rowset.Set {
	s := rowset.New(rel.Len())
	b.TargetSetInto(rel, s)
	return s
}

// TargetSetInto adds Iσ's rows to s, which must span rel's rows. It lets
// pooled sets be reused across bounds without allocation.
func (b *Bound) TargetSetInto(rel *relation.Relation, s *rowset.Set) {
	if b.unseen {
		return
	}
	for i, n := 0, rel.Len(); i < n; i++ {
		if b.Matches(rel.Row(i)) {
			s.Add(i)
		}
	}
}

// TargetQIRows returns the tuples matching the QI components of the target
// only, in row order. Clusters preserving occurrences of σ must be uniform
// on the QI target attributes (so those cells survive suppression) but may
// mix sensitive target values — sensitive cells are kept per-row — so this,
// not TargetRows, is the pool candidate clusters draw from. For targets
// without sensitive components the two coincide; a target without QI
// components matches every row, and one whose QI part holds a value rel
// never held matches none. It is the one-bound case of Pools, on up to
// GOMAXPROCS workers.
func (b *Bound) TargetQIRows(rel *relation.Relation) []int {
	return Pools(rel, []*Bound{b}, 0)[0]
}

// Set is an ordered set of diversity constraints Σ.
type Set []Constraint

// Validate checks every constraint and rejects duplicate targets.
func (s Set) Validate() error {
	seen := make(map[string]int, len(s))
	for i, c := range s {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("constraint %d: %w", i, err)
		}
		if j, dup := seen[c.Key()]; dup {
			return fmt.Errorf("constraint %d duplicates target of constraint %d (%s)", i, j, c)
		}
		seen[c.Key()] = i
	}
	return nil
}

// Bind resolves every constraint in the set against rel.
func (s Set) Bind(rel *relation.Relation) ([]*Bound, error) {
	out := make([]*Bound, len(s))
	for i, c := range s {
		b, err := c.Bound(rel)
		if err != nil {
			return nil, fmt.Errorf("constraint %d (%s): %w", i, c, err)
		}
		out[i] = b
	}
	return out, nil
}

// SatisfiedBy reports whether rel |= Σ, i.e. rel satisfies every constraint.
func (s Set) SatisfiedBy(rel *relation.Relation) (bool, error) {
	bounds, err := s.Bind(rel)
	if err != nil {
		return false, err
	}
	for _, b := range bounds {
		if !b.SatisfiedBy(rel) {
			return false, nil
		}
	}
	return true, nil
}

// Violations returns a human-readable description of every constraint the
// relation violates; empty means rel |= Σ.
func (s Set) Violations(rel *relation.Relation) ([]string, error) {
	bounds, err := s.Bind(rel)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, b := range bounds {
		n := b.CountIn(rel)
		switch {
		case n < b.Lower:
			out = append(out, fmt.Sprintf("%s: %d occurrences, below lower bound %d", b, n, b.Lower))
		case n > b.Upper:
			out = append(out, fmt.Sprintf("%s: %d occurrences, above upper bound %d", b, n, b.Upper))
		}
	}
	return out, nil
}

// String renders the set one constraint per line.
func (s Set) String() string {
	lines := make([]string, len(s))
	for i, c := range s {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}
