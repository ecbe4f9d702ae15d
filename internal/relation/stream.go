package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// CSVStream reads a relation's tuples incrementally from CSV data, building
// the dictionaries as rows arrive but never requiring the whole relation in
// memory at once. It backs the engine's out-of-core paths: callers either
// consume raw value rows one at a time (Next), materialize bounded chunks
// that share one dictionary family (ReadChunk), or drain everything
// (ReadAll — what ReadCSV and ReadAnnotatedCSV do).
//
// Chunks returned by ReadChunk all Derive from the same base relation, so
// codes are comparable across chunks and dictionary memory is paid once —
// the "shared out-of-core dictionary building" the sharded engine relies on.
type CSVStream struct {
	cr     *csv.Reader
	base   *Relation
	colFor []int
	values []string
	line   int
}

// NewCSVStream opens a stream over CSV data whose header row matches
// schema's attribute names (order-insensitive, extra columns ignored,
// missing columns an error) — the streaming form of ReadCSV.
func NewCSVStream(r io.Reader, schema *Schema) (*CSVStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	colFor := make([]int, schema.Len())
	for i := range colFor {
		colFor[i] = -1
	}
	for col, name := range header {
		if i, ok := schema.Index(strings.TrimSpace(name)); ok {
			colFor[i] = col
		}
	}
	for i, col := range colFor {
		if col < 0 {
			return nil, fmt.Errorf("relation: CSV is missing attribute %q", schema.Attr(i).Name)
		}
	}
	return &CSVStream{
		cr:     cr,
		base:   New(schema),
		colFor: colFor,
		values: make([]string, schema.Len()),
		line:   1,
	}, nil
}

// NewAnnotatedCSVStream opens a stream over CSV data whose header carries
// "name:role[:kind]" annotations as understood by ParseHeaderSchema — the
// streaming form of ReadAnnotatedCSV.
func NewAnnotatedCSVStream(r io.Reader) (*CSVStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	schema, err := ParseHeaderSchema(header)
	if err != nil {
		return nil, err
	}
	colFor := make([]int, schema.Len())
	for i := range colFor {
		colFor[i] = i // annotated headers define the column order
	}
	return &CSVStream{
		cr:     cr,
		base:   New(schema),
		colFor: colFor,
		values: make([]string, schema.Len()),
		line:   1,
	}, nil
}

// Schema returns the stream's schema.
func (s *CSVStream) Schema() *Schema { return s.base.Schema() }

// Relation returns the stream's base relation: the owner of the shared
// dictionaries, holding every row appended by ReadAll (and nothing else —
// Next and ReadChunk do not grow it beyond the chunks' Derive sharing).
func (s *CSVStream) Relation() *Relation { return s.base }

// Line returns the 1-based CSV line number of the record most recently
// returned by Next (the header is line 1), for error reporting.
func (s *CSVStream) Line() int { return s.line }

// Next returns the next tuple's values in schema attribute order, or io.EOF
// when the data is exhausted. The returned slice is reused by the following
// Next call; copy it to retain.
func (s *CSVStream) Next() ([]string, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	s.line++
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV line %d: %w", s.line, err)
	}
	for i, col := range s.colFor {
		if col >= len(rec) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, need column %d", s.line, len(rec), col+1)
		}
		s.values[i] = rec[col]
	}
	return s.values, nil
}

// ReadChunk materializes up to maxRows tuples as a relation sharing the
// stream's dictionaries (and numeric-parse cache) with every other chunk.
// It returns io.EOF — with a nil relation — once the stream is exhausted;
// a short final chunk is returned without error. maxRows ≤ 0 is an error.
func (s *CSVStream) ReadChunk(maxRows int) (*Relation, error) {
	if maxRows <= 0 {
		return nil, fmt.Errorf("relation: ReadChunk needs maxRows > 0, got %d", maxRows)
	}
	chunk := s.base.Derive()
	for chunk.Len() < maxRows {
		vals, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if _, err := chunk.AppendValues(vals...); err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: %w", s.line, err)
		}
	}
	if chunk.Len() == 0 {
		return nil, io.EOF
	}
	return chunk, nil
}

// readAllChunk is the chunk size ReadAll drains the stream in.
const readAllChunk = 8192

// ReadAll drains the stream into its base relation and returns it. The
// tuples are read in bounded chunks and copied into the base relation once,
// at their final size, rather than through the doubling growth of one array
// as large as the relation.
func (s *CSVStream) ReadAll() (*Relation, error) {
	var chunks []*Relation
	rows := 0
	for {
		chunk, err := s.ReadChunk(readAllChunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, chunk)
		rows += chunk.Len()
	}
	s.base.Grow(rows)
	for _, c := range chunks {
		s.base.codes = append(s.base.codes, c.codes...)
		s.base.n += c.n
	}
	return s.base, nil
}

// LoadCSVStream reads CSV data row by row, invoking fn with each tuple's
// 0-based row index and values (in schema attribute order; the slice is
// reused between calls). A nil schema reads an annotated header
// (ParseHeaderSchema); otherwise the header is matched against schema by
// name as in ReadCSV. An error from fn stops the read and is returned
// verbatim. The relation is never materialized — this is the row-callback
// loader for relations too large to hold in memory.
func LoadCSVStream(r io.Reader, schema *Schema, fn func(row int, values []string) error) error {
	var s *CSVStream
	var err error
	if schema == nil {
		s, err = NewAnnotatedCSVStream(r)
	} else {
		s, err = NewCSVStream(r, schema)
	}
	if err != nil {
		return err
	}
	for row := 0; ; row++ {
		vals, err := s.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(row, vals); err != nil {
			return err
		}
	}
}
