// Package relation implements the relational substrate used throughout the
// repository: schemas with attribute roles, a dictionary-encoded tuple store,
// value suppression, grouping, projection and CSV input/output.
//
// The paper's algorithms operate on a relation R whose attributes are
// partitioned into identifiers, quasi-identifiers (QI) and sensitive
// attributes, and produce anonymized relations R' with some QI cells
// replaced by the suppression marker ★. To make frequency counting and
// QI-group detection cheap on relations with hundreds of thousands of
// tuples, every attribute owns a dictionary mapping attribute values to
// dense uint32 codes, and a relation's tuples live row-major in one flat
// []uint32 code array (Row returns a capped view of one tuple). Code 0 is
// reserved for ★ in every dictionary.
package relation

import (
	"fmt"
	"strings"
)

// Role classifies an attribute for privacy purposes.
type Role uint8

const (
	// QI marks a quasi-identifier attribute: one that, in combination with
	// other QI attributes, may re-identify an individual. Only QI cells are
	// ever suppressed.
	QI Role = iota
	// Sensitive marks an attribute carrying personal information (such as a
	// diagnosis). Sensitive cells are retained verbatim by suppression-based
	// anonymization.
	Sensitive
	// Identifier marks an attribute that uniquely identifies an individual
	// (such as an SSN). Identifier attributes are dropped entirely from any
	// anonymized output.
	Identifier
)

// String returns the conventional name of the role.
func (r Role) String() string {
	switch r {
	case QI:
		return "QI"
	case Sensitive:
		return "sensitive"
	case Identifier:
		return "identifier"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Kind classifies the value domain of an attribute.
type Kind uint8

const (
	// Categorical attributes draw values from an unordered finite domain.
	Categorical Kind = iota
	// Numeric attributes hold integer- or float-valued data; distance-based
	// algorithms (k-member, OKA, Mondrian) treat them on a normalized range.
	Numeric
)

// String returns the conventional name of the kind.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attribute describes a single column of a relation schema.
type Attribute struct {
	Name string
	Role Role
	Kind Kind
}

// Schema is an ordered list of attributes. The zero value is an empty schema.
type Schema struct {
	attrs  []Attribute
	byName map[string]int
}

// NewSchema builds a schema from the given attributes. Attribute names must
// be unique and non-empty.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	s := &Schema{
		attrs:  make([]Attribute, len(attrs)),
		byName: make(map[string]int, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute name %q", a.Name)
		}
		s.byName[a.Name] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. It is intended for
// statically known schemas in tests and examples.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// QIIndexes returns the positions of all quasi-identifier attributes in
// schema order.
func (s *Schema) QIIndexes() []int {
	var out []int
	for i, a := range s.attrs {
		if a.Role == QI {
			out = append(out, i)
		}
	}
	return out
}

// SensitiveIndexes returns the positions of all sensitive attributes.
func (s *Schema) SensitiveIndexes() []int {
	var out []int
	for i, a := range s.attrs {
		if a.Role == Sensitive {
			out = append(out, i)
		}
	}
	return out
}

// String renders the schema as "name:role:kind, ...".
func (s *Schema) String() string {
	var b strings.Builder
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s:%s", a.Name, a.Role, a.Kind)
	}
	return b.String()
}

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(t *Schema) bool {
	if s.Len() != t.Len() {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != t.attrs[i] {
			return false
		}
	}
	return true
}
