package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// refStream is the reference loader the scanner is checked against: the
// record-at-a-time encoding/csv decode with one AppendValues per record,
// numbering errors the way the loaders always have.
type refStream struct {
	cr     *csv.Reader
	base   *Relation
	colFor []int
	values []string
	line   int
}

// newRefStream opens a reference stream; a nil schema reads an annotated
// header.
func newRefStream(r io.Reader, schema *Schema) (*refStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	colFor := make([]int, len(header))
	for i := range colFor {
		colFor[i] = i
	}
	if schema == nil {
		if schema, err = ParseHeaderSchema(header); err != nil {
			return nil, err
		}
	} else {
		colFor = make([]int, schema.Len())
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
	}
	return &refStream{cr: cr, base: New(schema), colFor: colFor, values: make([]string, schema.Len()), line: 1}, nil
}

func (s *refStream) next() ([]string, error) {
	rec, err := s.cr.Read()
	if err == io.EOF {
		return nil, io.EOF
	}
	s.line++
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV line %d: %w", s.line, err)
	}
	for i, col := range s.colFor {
		s.values[i] = rec[col]
	}
	return s.values, nil
}

// readAll appends every record to the base relation and returns it.
func (s *refStream) readAll() (*Relation, error) {
	for {
		vals, err := s.next()
		if err == io.EOF {
			return s.base, nil
		}
		if err != nil {
			return nil, err
		}
		s.base.MustAppendValues(vals...)
	}
}

// sameRelation fails unless got and want have the same schema, rows,
// codes and dictionary value order.
func sameRelation(t *testing.T, what string, got, want *Relation) {
	t.Helper()
	if !got.Schema().Equal(want.Schema()) {
		t.Fatalf("%s: schema %s, want %s", what, got.Schema(), want.Schema())
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			t.Fatalf("%s: row %d codes %v, want %v", what, i, got.Row(i), want.Row(i))
		}
	}
	for a := 0; a < want.Schema().Len(); a++ {
		if g, w := got.Dict(a).Values(), want.Dict(a).Values(); !slices.Equal(g, w) {
			t.Fatalf("%s: dictionary %d is %q, want %q", what, a, g, w)
		}
	}
}

// sameErr fails unless both errors are nil or both carry the same text.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, want %v", what, got, want)
	}
}

// readers delivers data in the shapes the loaders must not care about:
// all at once, a byte per Read, and with io.EOF on the last data.
var readers = map[string]func(string) io.Reader{
	"whole":    func(d string) io.Reader { return strings.NewReader(d) },
	"bytewise": func(d string) io.Reader { return iotest.OneByteReader(strings.NewReader(d)) },
	"eof-data": func(d string) io.Reader { return iotest.DataErrReader(strings.NewReader(d)) },
}

// checkLoad checks ReadAll against the reference on data. A nil schema
// reads an annotated header.
func checkLoad(t *testing.T, data string, schema *Schema) {
	t.Helper()
	for name, reader := range readers {
		what := fmt.Sprintf("%s, %s read, block %d", map[bool]string{true: "annotated", false: "by schema"}[schema == nil], name, blockSize)
		ref, wantErr := newRefStream(strings.NewReader(data), schema)
		var s *CSVStream
		var err error
		if schema == nil {
			s, err = NewAnnotatedCSVStream(reader(data))
		} else {
			s, err = NewCSVStream(reader(data), schema)
		}
		sameErr(t, what+": open", err, wantErr)
		if err != nil {
			continue
		}
		want, wantErr := ref.readAll()
		got, err := s.ReadAll()
		sameErr(t, what, err, wantErr)
		if err == nil {
			sameRelation(t, what, got, want)
		}
	}
}

// bySchemaFor returns a schema naming data's header columns after the
// first in reverse order, so ReadCSV meets both a reordered and an ignored
// column; nil when the header does not give one.
func bySchemaFor(data string) *Schema {
	header, err := csv.NewReader(strings.NewReader(data)).Read()
	if err != nil || len(header) < 2 {
		return nil
	}
	var attrs []Attribute
	for i := len(header) - 1; i >= 1; i-- {
		attrs = append(attrs, Attribute{Name: strings.TrimSpace(header[i])})
	}
	s, err := NewSchema(attrs...)
	if err != nil {
		return nil
	}
	return s
}

// withBlockSize runs fn with the loaders cutting blocks of n bytes.
func withBlockSize(n int, fn func()) {
	saved := blockSize
	blockSize = n
	defer func() { blockSize = saved }()
	fn()
}

// checkAllLoaders compares every loader with the reference on data, in one
// block and in blocks of a few bytes.
func checkAllLoaders(t *testing.T, data string) {
	t.Helper()
	for _, size := range []int{blockSize, 16, 5} {
		withBlockSize(size, func() {
			schemas := []*Schema{nil}
			if s := bySchemaFor(data); s != nil {
				schemas = append(schemas, s)
			}
			for _, schema := range schemas {
				checkLoad(t, data, schema)
			}
		})
	}
}

// FuzzCSVLoaderMatchesReference checks that every loader — ReadAll under
// ReadAnnotatedCSV and ReadCSV (reordered plus ignored columns) — builds the
// reference loader's schema, dictionary order and codes, or fails with its
// error text, line numbers included.
func FuzzCSVLoaderMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"A:qi,B:sensitive\nx,y\nx,z\n",
		"A:qi,B:qi\n\"x\",y\n\"a,b\",c\n",               // quotes, a quoted comma
		"A:qi,B:qi\nx,y\n\"multi\nline\",z\nq,r\n",      // quoted embedded newline
		"A:qi,B:qi\r\nx,y\r\nu,v\r\n",                   // CRLF
		"A:qi,B:qi\nx\ry,z\nw,\r\n",                     // lone \r inside a field
		"\n\nA:qi,B:qi\n\nx,y\n\r\n\nu,v\n\n",           // blank lines
		"A:qi,B:qi,C:qi\n,,\nx,,z\n",                    // empty fields
		"A:qi,B:qi\n1,2\n3\n",                           // ragged short row
		"A:qi,B:qi\n1,2\n3,4,5\n",                       // ragged long row
		"A:qi,B:qi\n1,2\n3,4",                           // no trailing newline
		"A:qi,B:qi\n1,2\n3,4\r",                         // trailing \r at EOF
		"A:qi,DIAG:s\n,cold\n*,cold\nx,*\n",             // ★ cells
		"A:qi,B:qi\nx,y\nbare\"quote,z\n",               // bare quote
		"A:qi,B:qi\nx,y\n\"unclosed,z\n",                // unclosed quote
		"A:qi,B:qi\n1,2\n\"3\",4,5\n",                   // ragged quoted row
		"A:qi\n\n",                                      // header only
		"",                                              // empty input
		"\"A:qi\",B:qi\nx,y\n",                          // quoted header
		"A:qi,B:qi\nx,y\nx,y\nz,y\nx,w\nz,w\n\"x\",y\n", // quote after several rows
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkAllLoaders(t, data)
	})
}

// TestReadAllAcrossBlocks drives ReadAll under ReadAnnotatedCSV and ReadCSV
// over inputs cut into several blocks, around the cases block boundaries make hard, and
// checks that no worker outlives a load.
func TestReadAllAcrossBlocks(t *testing.T) {
	var rows strings.Builder
	rows.WriteString("A:qi,B:qi,C:sensitive\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&rows, "a%d,b%d,c%d\n", i%3, i%5, i%2)
	}
	plain := rows.String()
	cases := map[string]string{
		"plain": plain,
		// 22-byte header, 9-byte rows: with 64-byte blocks the quote sits
		// in the third block.
		"quote in block 3":       plain[:22+9*15] + "\"q,x\",b0,c0\n" + plain[22+9*15:],
		"ragged row last block":  plain + "a0,b0\n",
		"long row last block":    plain + "a0,b0,c0,d0\n",
		"blank lines and CRLF":   strings.ReplaceAll(plain, "\n", "\r\n\n\r\n"),
		"late first value":       plain + "late,b0,c0\nlate,b1,c1\n",
		"no trailing newline":    strings.TrimSuffix(plain, "\n"),
		"CRLF without last LF":   strings.TrimSuffix(strings.ReplaceAll(plain, "\n", "\r\n"), "\n"),
		"ragged after quote":     plain + "\"q\",b,c\nx,y\n",
		"bare quote late":        plain + "x\"y,b,c\n",
		"only blank lines after": plain + "\n\r\n\n",
	}
	start := runtime.NumGoroutine()
	withBlockSize(64, func() {
		for name, data := range cases {
			t.Run(name, func(t *testing.T) {
				for _, schema := range []*Schema{nil, bySchemaFor(data)} {
					checkLoad(t, data, schema)
				}
			})
		}
	})
	// A ragged row ends the load early, with blocks still queued; the
	// workers must have exited all the same.
	checkGoroutines(t, start)
}

// checkGoroutines fails unless the goroutine count is back to start (or
// below it: a goroutine an earlier test left behind may exit meanwhile). A
// joined worker may take a moment to leave the scheduler's count after
// signalling that it is done, so the check waits a little for it.
func checkGoroutines(t *testing.T, start int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines, %d before the load", n, start)
	}
}

// TestReadAllJoinsWorkers checks that ReadAll returns with its workers gone,
// after a load that succeeds and after one that fails early.
func TestReadAllJoinsWorkers(t *testing.T) {
	var b strings.Builder
	b.WriteString("A:qi,B:qi\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "a%d,b%d\n", i%7, i%11)
	}
	ok := b.String()
	bad := ok[:200] + "ragged\n" + ok[200:]
	withBlockSize(32, func() {
		for _, data := range []string{ok, bad} {
			start := runtime.NumGoroutine()
			_, err := ReadAnnotatedCSV(strings.NewReader(data))
			if (err != nil) != (data == bad) {
				t.Fatalf("ReadAnnotatedCSV: %v", err)
			}
			checkGoroutines(t, start)
		}
	})
}

// TestReadErrorsSurface checks that a failing reader's error reaches the
// caller, on the inline path and between blocks.
func TestReadErrorsSurface(t *testing.T) {
	boom := errors.New("boom")
	data := "A:qi,B:qi\n" + strings.Repeat("x,y\n", 50)
	for _, size := range []int{blockSize, 16} {
		withBlockSize(size, func() {
			r := io.MultiReader(strings.NewReader(data), iotest.ErrReader(boom))
			if _, err := ReadAnnotatedCSV(r); !errors.Is(err, boom) {
				t.Fatalf("block %d: got %v, want the reader's error", size, err)
			}
		})
	}
}
