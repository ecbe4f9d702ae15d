package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
)

// blockSize is how much input one block holds: a block is cut after the
// last newline of its first blockSize bytes. Tests shrink it to exercise
// multi-block loads on small inputs.
var blockSize = 1 << 20

// initialBuffer is the read buffer's first capacity. The buffer doubles with
// the data up to a block, so a small input never costs a block-sized buffer.
const initialBuffer = 4 << 10

// CSVStream loads a relation from CSV data: it reads the header when it is
// opened, and ReadAll (what ReadCSV and ReadAnnotatedCSV call) decodes the
// body, building the dictionaries as rows arrive.
//
// The body is decoded by a byte-level scanner: input is read in blocks,
// split into records at newlines and into fields at commas, and each field
// is looked up in its dictionary by its bytes, so only a value seen for the
// first time becomes a string. Without quotes that is exactly how
// encoding/csv reads CSV. The first block holding a quote hands itself and
// the rest of the input to encoding/csv, which is the only reader of quoted
// fields; every earlier block was quote-free, so each of its newlines ended
// a record and the cut between the two readers falls on a record boundary.
type CSVStream struct {
	r   io.Reader // input not yet buffered
	buf []byte    // buffered input; buf[off:] is not decoded yet
	off int
	eof bool  // r is exhausted
	err error // r's error, when it failed with something other than io.EOF

	// cr decodes the rest of the input once a block holding a quote has
	// been read; it is nil while the scanner decodes.
	cr *csv.Reader

	base   *Relation
	colFor []int // schema attribute → CSV column
	sc     scanner
	values []string // the fallback's current tuple in schema order
	// line is the number of records read, the header included: the "CSV
	// line" errors name, counting records rather than physical lines.
	line int
	// nl counts the newlines the scanner consumed: encoding/csv numbers the
	// physical lines of its own input from 1, so its errors are shifted by nl.
	nl int
}

// NewCSVStream opens a stream over CSV data whose header row matches
// schema's attribute names (order-insensitive, extra columns ignored,
// missing columns an error) — the streaming form of ReadCSV.
func NewCSVStream(r io.Reader, schema *Schema) (*CSVStream, error) {
	s := &CSVStream{r: r}
	header, err := s.readHeader()
	if err != nil {
		return nil, err
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
	s.init(schema, colFor, len(header))
	return s, nil
}

// NewAnnotatedCSVStream opens a stream over CSV data whose header carries
// "name:role[:kind]" annotations as understood by ParseHeaderSchema — the
// streaming form of ReadAnnotatedCSV.
func NewAnnotatedCSVStream(r io.Reader) (*CSVStream, error) {
	s := &CSVStream{r: r}
	header, err := s.readHeader()
	if err != nil {
		return nil, err
	}
	schema, err := ParseHeaderSchema(header)
	if err != nil {
		return nil, err
	}
	colFor := make([]int, schema.Len())
	for i := range colFor {
		colFor[i] = i // annotated headers define the column order
	}
	s.init(schema, colFor, len(header))
	return s, nil
}

// init sets up decoding for a header of the given number of fields whose
// columns colFor maps the schema's attributes to.
func (s *CSVStream) init(schema *Schema, colFor []int, fields int) {
	s.base = New(schema)
	s.colFor = colFor
	s.values = make([]string, schema.Len())
	s.line = 1
	attrOf := make([]int, fields)
	for col := range attrOf {
		attrOf[col] = -1
	}
	for a, col := range colFor {
		attrOf[col] = a
	}
	s.sc = scanner{attrOf: attrOf}
}

// ReadAll drains the stream into its base relation and returns it. An input
// that ends inside its first block is decoded on the calling goroutine,
// straight into the base relation. A larger one is decoded block by block
// on up to GOMAXPROCS workers and merged in input order, so the codes and
// dictionaries are the ones a sequential load builds; the blocks are copied
// into the base relation once, at their final size.
func (s *CSVStream) ReadAll() (*Relation, error) {
	s.fill(blockSize)
	switch {
	case s.cr == nil && !s.eof:
		if err := s.readBlocks(); err != nil {
			return nil, err
		}
	case s.cr == nil:
		s.base.Grow(bytes.Count(s.buf[s.off:], newline) + 1)
	}
	if err := s.decode(); err != nil {
		return nil, err
	}
	return s.base, nil
}

var newline, comma = []byte{'\n'}, []byte{','}

// readHeader reads the header: the first record that is not a blank line.
// A quote-free header line is split at its commas; a quote anywhere in the
// first block leaves the whole input, the header included, to encoding/csv.
func (s *CSVStream) readHeader() ([]string, error) {
	want := blockSize
	for s.cr == nil {
		s.fill(want)
		if s.cr != nil {
			break
		}
		un := s.buf[s.off:]
		end := bytes.IndexByte(un, '\n')
		if end < 0 && !s.eof {
			want = 2 * len(un)
			continue
		}
		if end < 0 && s.err != nil {
			return nil, fmt.Errorf("relation: reading CSV header: %w", s.err)
		}
		if len(un) == 0 {
			return nil, fmt.Errorf("relation: reading CSV header: %w", io.EOF)
		}
		next := end + 1
		if end < 0 {
			end, next = len(un), len(un)
		}
		s.off += next
		s.nl += next - end
		line := trimCR(un[:end])
		if len(line) == 0 {
			continue
		}
		return strings.Split(string(line), ","), nil
	}
	header, err := s.cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", s.shiftLines(err))
	}
	return slices.Clone(header), nil
}

// fill buffers input until want bytes wait to be decoded, the input ends,
// or a quote hands the rest of the input to encoding/csv.
func (s *CSVStream) fill(want int) {
	for s.cr == nil && !s.eof && len(s.buf)-s.off < want {
		if len(s.buf) == cap(s.buf) {
			un := s.buf[s.off:]
			if s.off == 0 {
				s.buf = append(make([]byte, 0, max(initialBuffer, 2*cap(s.buf))), un...)
			} else {
				s.buf = s.buf[:copy(s.buf, un)]
			}
			s.off = 0
		}
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		read := s.buf[len(s.buf) : len(s.buf)+n]
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			s.eof = true
			if err != io.EOF {
				s.err = err
			}
		}
		if bytes.IndexByte(read, '"') >= 0 {
			s.fallback()
		}
	}
}

// fallback hands the undecoded input to encoding/csv.
func (s *CSVStream) fallback() {
	rest := io.Reader(bytes.NewReader(s.buf[s.off:]))
	if !s.eof || s.err != nil {
		rest = io.MultiReader(rest, s.r)
	}
	s.cr = csv.NewReader(rest)
	// Before the header is read this is 0, and encoding/csv takes the
	// header's field count as the one every record must have.
	s.cr.FieldsPerRecord = len(s.sc.attrOf)
	s.cr.ReuseRecord = true
	s.buf, s.off = nil, 0
}

// decode appends the records left in the input to the base relation:
// quote-free input through the scanner, and the rest of the input, once a
// block holds a quote, through encoding/csv.
func (s *CSVStream) decode() error {
	for s.cr == nil {
		res := s.sc.scan(s.base, s.buf[s.off:], s.eof && s.err == nil)
		s.off += res.n
		s.nl += res.lines
		s.line += res.rows
		switch {
		case res.bad:
			return s.fieldCountError(s.nl + 1)
		case s.err != nil:
			return fmt.Errorf("relation: reading CSV line %d: %w", s.line+1, s.err)
		case s.eof:
			return nil
		}
		s.fill(max(blockSize, 2*(len(s.buf)-s.off)))
	}
	return s.decodeQuoted()
}

// decodeQuoted appends the records encoding/csv reads to the base relation.
func (s *CSVStream) decodeQuoted() error {
	for {
		rec, err := s.cr.Read()
		if err == io.EOF {
			return nil
		}
		s.line++
		if err != nil {
			return fmt.Errorf("relation: reading CSV line %d: %w", s.line, s.shiftLines(err))
		}
		for i, col := range s.colFor {
			s.values[i] = rec[col]
		}
		s.base.MustAppendValues(s.values...)
	}
}

// shiftLines renumbers the lines of an encoding/csv parse error, counted
// from the fallback's first line, from the first line of the input.
func (s *CSVStream) shiftLines(err error) error {
	if pe, ok := err.(*csv.ParseError); ok {
		pe.StartLine += s.nl
		pe.Line += s.nl
	}
	return err
}

// fieldCountError reports the next record, on physical line line, as
// encoding/csv reports a record whose field count is not the header's.
func (s *CSVStream) fieldCountError(line int) error {
	s.line++
	return fmt.Errorf("relation: reading CSV line %d: %w", s.line,
		&csv.ParseError{StartLine: line, Line: line, Column: 1, Err: csv.ErrFieldCount})
}

// block is one run of complete, quote-free records that a worker decodes
// into a relation of its own, with block-local dictionaries.
type block struct {
	data  []byte
	final bool // data ends the input: its last record needs no newline
	rel   *Relation
	res   scanned
	done  chan struct{}
}

// readBlocks decodes the quote-free input in blocks on up to GOMAXPROCS
// workers and appends their rows to the base relation in input order. It
// stops at the end of the input, at a block holding a quote and at a read
// error, leaving what follows to decode. Every worker has exited when it
// returns.
func (s *CSVStream) readBlocks() error {
	workers := runtime.GOMAXPROCS(0)
	// At most cap(jobs) blocks are dispatched and not yet merged: enough
	// to keep every worker busy while the caller reads and merges, and the
	// buffer holds them all, so dispatching never blocks.
	jobs := make(chan *block, 2*workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scanner{attrOf: s.sc.attrOf, recent: make([]recentTable, s.base.width)}
			for b := range jobs {
				clear(sc.recent) // the block's dictionaries start empty
				b.rel.Grow(bytes.Count(b.data, newline) + 1)
				b.res = sc.scan(b.rel, b.data, b.final)
				close(b.done)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	var (
		window []*block    // dispatched, not yet merged, in input order
		merged []*Relation // merged blocks' rows, in base codes
		spare  [][]byte    // merged blocks' buffers, for reuse
		remap  = make([][]uint32, s.base.width)
		rows   int
	)
	mergeFirst := func() error {
		b := window[0]
		window = window[1:]
		<-b.done
		if cap(b.data) >= blockSize {
			spare = append(spare, b.data[:0])
		}
		if b.res.bad {
			s.line += b.res.rows
			return s.fieldCountError(s.nl + b.res.lines + 1)
		}
		s.merge(b.rel, remap)
		s.nl += b.res.lines
		s.line += b.res.rows
		rows += b.res.rows
		merged = append(merged, b.rel)
		return nil
	}
	for {
		if len(window) == cap(jobs) {
			if err := mergeFirst(); err != nil {
				return err
			}
		}
		var buf []byte
		if n := len(spare); n > 0 {
			buf, spare = spare[n-1], spare[:n-1]
		} else {
			buf = make([]byte, 0, blockSize)
		}
		data, final := s.nextBlock(buf)
		if data == nil {
			break
		}
		b := &block{data: data, final: final, rel: New(s.base.schema), done: make(chan struct{})}
		jobs <- b
		window = append(window, b)
	}
	for len(window) > 0 {
		if err := mergeFirst(); err != nil {
			return err
		}
	}
	s.base.Grow(rows)
	for _, m := range merged {
		s.base.codes = append(s.base.codes, m.codes...)
		s.base.n += m.n
	}
	return nil
}

// nextBlock cuts the next block off the buffered input: the complete
// records among at least blockSize bytes, or the rest of the input. The
// block keeps the buffer it was read into; spare becomes the stream's
// buffer and takes the cut-off partial record. nextBlock returns nil at the
// end of the input, once a quote has handed the rest to encoding/csv, and
// at a read error.
func (s *CSVStream) nextBlock(spare []byte) (data []byte, final bool) {
	for want := blockSize; ; {
		s.fill(want)
		un := s.buf[s.off:]
		switch {
		case s.cr != nil || s.err != nil || len(un) == 0:
			return nil, false
		case s.eof:
			s.buf, s.off = spare, 0
			return un, true
		}
		if cut := bytes.LastIndexByte(un, '\n'); cut >= 0 {
			s.buf, s.off = append(spare, un[cut+1:]...), 0
			return un[:cut+1], false
		}
		want = 2 * len(un) // one record is longer than the buffer
	}
}

// merge interns a block's values into the base dictionaries in local code
// order, which is the order they first appear in the block, and rewrites
// the block's codes in place to the base codes. Blocks merge in input
// order, so every value gets the code a sequential load gives it. remap is
// scratch, one table per attribute.
func (s *CSVStream) merge(local *Relation, remap [][]uint32) {
	for a, d := range local.dicts {
		m := remap[a][:0]
		for _, v := range d.values {
			m = append(m, s.base.dicts[a].Code(v))
		}
		remap[a] = m
	}
	w := local.width
	for lo := 0; lo < len(local.codes); lo += w {
		row := local.codes[lo : lo+w]
		for a, c := range row {
			row[a] = remap[a][c]
		}
	}
	local.dicts = nil
}

// scanner decodes quote-free CSV records into a relation: a record is a
// line, its fields are split at every comma, and each field is coded by its
// bytes.
type scanner struct {
	attrOf []int // CSV column → schema attribute, or -1 for an ignored column
	// recent, when set, holds one table per attribute of values recently
	// coded into the relation's dictionaries. Block workers keep one: a
	// large input repeats its values so often that most lookups hit it.
	recent []recentTable
}

// recentTable is a direct-mapped cache of one attribute's recently coded
// values, indexed by a hash of a field's length and end bytes. A hit costs
// one short comparison instead of the dictionary map's hash of the whole
// field and its probe; on a 76 MB census input it cut one goroutine's
// decode time by about a third.
type recentTable [64]recentValue

type recentValue struct {
	v    string
	code uint32
	ok   bool
}

// slot returns the entry field f maps to.
func (t *recentTable) slot(f []byte) *recentValue {
	h := len(f)
	if h > 0 {
		h = h*31 + int(f[0])*7 + int(f[len(f)-1])
	}
	return &t[h%len(t)]
}

// scanned is what one scan consumed.
type scanned struct {
	n     int  // bytes
	lines int  // newlines among them
	rows  int  // records appended
	bad   bool // the record after them has the wrong number of fields
}

// scan appends the complete records at the start of b to dst. A record
// ends at a newline or, when final, at the end of b. As in encoding/csv, one
// carriage return before a record's end is dropped and blank lines are
// skipped.
func (sc *scanner) scan(dst *Relation, b []byte, final bool) (res scanned) {
	w := dst.width
	for res.n < len(b) {
		rest := b[res.n:]
		end := bytes.IndexByte(rest, '\n')
		next := end + 1
		if end < 0 {
			if !final {
				return res
			}
			end, next = len(rest), len(rest)
		}
		if line := trimCR(rest[:end]); len(line) > 0 {
			if bytes.Count(line, comma) != len(sc.attrOf)-1 {
				res.bad = true
				return res
			}
			dst.codes = slices.Grow(dst.codes, w)
			row := dst.codes[len(dst.codes) : len(dst.codes)+w]
			dst.codes = dst.codes[:len(dst.codes)+w]
			for _, a := range sc.attrOf {
				f := line
				if i := bytes.IndexByte(line, ','); i >= 0 {
					f, line = line[:i], line[i+1:]
				}
				switch {
				case a < 0:
				case sc.recent == nil:
					row[a] = dst.dicts[a].codeBytes(f)
				default:
					e := sc.recent[a].slot(f)
					if !e.ok || e.v != string(f) {
						d := dst.dicts[a]
						e.code = d.codeBytes(f)
						e.v, e.ok = d.values[e.code], true
					}
					row[a] = e.code
				}
			}
			dst.n++
			res.rows++
		}
		res.n += next
		res.lines += next - end
	}
	return res
}

// trimCR drops one trailing carriage return, as encoding/csv does at the
// end of every line.
func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}
