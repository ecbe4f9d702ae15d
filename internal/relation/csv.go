package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// ReadCSV loads a relation from CSV data whose header row matches the given
// schema's attribute names (order-insensitive: columns are matched by name,
// extra columns are ignored, missing columns are an error): NewCSVStream's
// ReadAll. As in ReadAnnotatedCSV, a cell "*" is the suppression marker ★.
func ReadCSV(r io.Reader, schema *Schema) (*Relation, error) {
	s, err := NewCSVStream(r, schema)
	if err != nil {
		return nil, err
	}
	return s.ReadAll()
}

// ParseHeaderSchema builds a schema from an annotated CSV header of the form
// "name:role[:kind]" per column, where role is one of qi, sensitive, id and
// kind is one of categorical (default), numeric. Example:
//
//	GEN:qi,ETH:qi,AGE:qi:numeric,DIAG:sensitive
func ParseHeaderSchema(header []string) (*Schema, error) {
	attrs := make([]Attribute, 0, len(header))
	for col, h := range header {
		parts := strings.Split(strings.TrimSpace(h), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("relation: column %d: want name:role[:kind], got %q", col+1, h)
		}
		a := Attribute{Name: parts[0]}
		switch strings.ToLower(parts[1]) {
		case "qi", "quasi", "quasi-identifier":
			a.Role = QI
		case "sensitive", "s":
			a.Role = Sensitive
		case "id", "identifier":
			a.Role = Identifier
		default:
			return nil, fmt.Errorf("relation: column %d: unknown role %q", col+1, parts[1])
		}
		if len(parts) == 3 {
			switch strings.ToLower(parts[2]) {
			case "categorical", "cat":
				a.Kind = Categorical
			case "numeric", "num":
				a.Kind = Numeric
			default:
				return nil, fmt.Errorf("relation: column %d: unknown kind %q", col+1, parts[2])
			}
		}
		attrs = append(attrs, a)
	}
	return NewSchema(attrs...)
}

// ReadAnnotatedCSV loads a relation from CSV data whose header carries
// role/kind annotations as understood by ParseHeaderSchema. It is the
// materializing form of NewAnnotatedCSVStream.
//
// An input cell "*" (Star) is read as an already-suppressed ★ — code
// StarCode — so an anonymized relation written by WriteCSV or
// WriteAnnotatedCSV loads back unchanged. Such cells count as suppressed
// wherever ★ cells are counted.
func ReadAnnotatedCSV(r io.Reader) (*Relation, error) {
	s, err := NewAnnotatedCSVStream(r)
	if err != nil {
		return nil, err
	}
	return s.ReadAll()
}

// WriteCSV writes the relation as CSV with a plain header of attribute
// names. Identifier attributes are written as-is; callers anonymizing data
// should have dropped or suppressed them already.
func WriteCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	schema := rel.Schema()
	header := make([]string, schema.Len())
	for i := range header {
		header[i] = schema.Attr(i).Name
	}
	if err := cw.Write(keepCRLF(header)); err != nil {
		return err
	}
	return writeRows(w, cw, rel)
}

// writeRows writes rel's tuples through cw and flushes it. encoding/csv
// writes a record holding one empty field as an empty line, which every
// reader skips, so such a tuple is written as a quoted empty field instead
// and survives a round trip, as does a value holding "\r\n" (keepCRLF).
func writeRows(w io.Writer, cw *csv.Writer, rel *Relation) error {
	for i := 0; i < rel.Len(); i++ {
		vals := rel.Values(i)
		if len(vals) == 1 && vals[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(keepCRLF(vals)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// keepCRLF prepares a record for encoding/csv, whose reader takes a "\r\n"
// line break inside a quoted field for "\n": every "\r\n" in a value is
// written as "\r\r\n", which reads back as "\r\n".
func keepCRLF(rec []string) []string {
	for i, v := range rec {
		if strings.Contains(v, "\r\n") {
			rec[i] = strings.ReplaceAll(v, "\r\n", "\r\r\n")
		}
	}
	return rec
}

// AnnotatedHeader renders schema as the "name:role:kind" header row that
// ReadAnnotatedCSV (and NewAnnotatedCSVStream) round-trips; WriteAnnotatedCSV
// and streaming writers like cmd/datagen share it.
func AnnotatedHeader(schema *Schema) []string {
	header := make([]string, schema.Len())
	for i := range header {
		a := schema.Attr(i)
		role := "qi"
		switch a.Role {
		case Sensitive:
			role = "sensitive"
		case Identifier:
			role = "id"
		}
		kind := "categorical"
		if a.Kind == Numeric {
			kind = "numeric"
		}
		header[i] = fmt.Sprintf("%s:%s:%s", a.Name, role, kind)
	}
	return header
}

// WriteAnnotatedCSV writes the relation as CSV with an annotated header that
// ReadAnnotatedCSV can round-trip.
func WriteAnnotatedCSV(w io.Writer, rel *Relation) error {
	cw := csv.NewWriter(w)
	header := AnnotatedHeader(rel.Schema())
	if err := cw.Write(keepCRLF(header)); err != nil {
		return err
	}
	return writeRows(w, cw, rel)
}
