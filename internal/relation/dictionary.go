package relation

import "maps"

// Star is the textual rendering of the suppression marker ★.
const Star = "*"

// StarCode is the dictionary code reserved for the suppression marker in
// every attribute dictionary.
const StarCode uint32 = 0

// Dictionary maps the string values of one attribute to dense uint32 codes
// and back. Code 0 is always the suppression marker Star. Dictionaries are
// append-only; codes are stable for the lifetime of the dictionary.
type Dictionary struct {
	values []string          // code -> value; values[0] == Star
	codes  map[string]uint32 // value -> code
	// ancestors holds the codes of the values Ancestor interned that Code
	// has not interned since; nil until Ancestor first interns one.
	ancestors map[uint32]struct{}
}

// NewDictionary returns an empty dictionary containing only the suppression
// marker at code 0.
func NewDictionary() *Dictionary {
	d := &Dictionary{
		values: []string{Star},
		codes:  map[string]uint32{Star: StarCode},
	}
	return d
}

// Code returns the code for value, interning it if it was not seen before.
func (d *Dictionary) Code(value string) uint32 {
	if c, ok := d.codes[value]; ok {
		if len(d.ancestors) > 0 {
			delete(d.ancestors, c)
		}
		return c
	}
	c := uint32(len(d.values))
	d.values = append(d.values, value)
	d.codes[value] = c
	return c
}

// codeBytes is Code for a value given as bytes. The lookup does not
// allocate; only a value seen for the first time is copied into a string.
func (d *Dictionary) codeBytes(b []byte) uint32 {
	if c, ok := d.codes[string(b)]; ok && len(d.ancestors) == 0 {
		return c
	}
	return d.Code(string(b))
}

// Ancestor returns the code for a hierarchy ancestor that a generalized
// rendering writes in place of a cluster's values (an LCA such as
// "[30-39]"), interning it if it was not seen before. A value Ancestor
// interns is no value of the data: Cardinality and Values leave it out
// until Code interns it. So rendering a generalized relation over shared
// dictionaries does not change what a later partitioning of the same data
// reads from them.
func (d *Dictionary) Ancestor(value string) uint32 {
	if c, ok := d.codes[value]; ok {
		return c
	}
	c := d.Code(value)
	if d.ancestors == nil {
		d.ancestors = make(map[uint32]struct{})
	}
	d.ancestors[c] = struct{}{}
	return c
}

// Lookup returns the code for value without interning, and whether the value
// is present.
func (d *Dictionary) Lookup(value string) (uint32, bool) {
	c, ok := d.codes[value]
	return c, ok
}

// Value returns the string for a code. It panics if the code was never
// issued by this dictionary.
func (d *Dictionary) Value(code uint32) string {
	return d.values[code]
}

// Len returns the number of distinct codes, including the suppression
// marker.
func (d *Dictionary) Len() int { return len(d.values) }

// Cardinality returns the number of distinct real values (excluding the
// suppression marker and the ancestors only Ancestor interned).
func (d *Dictionary) Cardinality() int { return len(d.values) - 1 - len(d.ancestors) }

// Values returns all real values (excluding the suppression marker and the
// ancestors only Ancestor interned) in code order.
func (d *Dictionary) Values() []string {
	out := make([]string, 0, d.Cardinality())
	for c, v := range d.values[1:] {
		if _, ok := d.ancestors[uint32(c+1)]; !ok {
			out = append(out, v)
		}
	}
	return out
}

// Clone returns an independent copy of the dictionary.
func (d *Dictionary) Clone() *Dictionary {
	nd := &Dictionary{
		values:    make([]string, len(d.values)),
		codes:     make(map[string]uint32, len(d.codes)),
		ancestors: maps.Clone(d.ancestors),
	}
	copy(nd.values, d.values)
	for v, c := range d.codes {
		nd.codes[v] = c
	}
	return nd
}
