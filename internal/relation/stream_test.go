package relation_test

import (
	"io"
	"strings"
	"testing"

	"diva/internal/relation"
)

const streamCSV = "A,B,AGE\na0,b0,30\na1,b1,41\na0,b2,52\na2,b0,30\na1,b1,63\n"

const streamAnnotatedCSV = "A:qi:categorical,B:sensitive:categorical,AGE:qi:numeric\n" +
	"a0,b0,30\na1,b1,41\na0,b2,52\na2,b0,30\na1,b1,63\n"

func streamSchema(t *testing.T) *relation.Schema {
	t.Helper()
	s, err := relation.NewSchema(
		relation.Attribute{Name: "A", Role: relation.QI},
		relation.Attribute{Name: "B", Role: relation.Sensitive},
		relation.Attribute{Name: "AGE", Role: relation.QI, Kind: relation.Numeric},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

func sameRows(t *testing.T, want, got *relation.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("rows: got %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.Values(i), got.Values(i)
		for a := range w {
			if w[a] != g[a] {
				t.Fatalf("row %d attr %d: got %q, want %q", i, a, g[a], w[a])
			}
		}
	}
}

func TestStreamReadAllMatchesReadCSV(t *testing.T) {
	schema := streamSchema(t)
	want, err := relation.ReadCSV(strings.NewReader(streamCSV), schema)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	s, err := relation.NewCSVStream(strings.NewReader(streamCSV), schema)
	if err != nil {
		t.Fatalf("NewCSVStream: %v", err)
	}
	got, err := s.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sameRows(t, want, got)
	if got != s.Relation() {
		t.Fatalf("ReadAll should return the stream's base relation")
	}
}

func TestAnnotatedStreamMatchesReadAnnotatedCSV(t *testing.T) {
	want, err := relation.ReadAnnotatedCSV(strings.NewReader(streamAnnotatedCSV))
	if err != nil {
		t.Fatalf("ReadAnnotatedCSV: %v", err)
	}
	s, err := relation.NewAnnotatedCSVStream(strings.NewReader(streamAnnotatedCSV))
	if err != nil {
		t.Fatalf("NewAnnotatedCSVStream: %v", err)
	}
	if got, want := s.Schema().Len(), want.Schema().Len(); got != want {
		t.Fatalf("schema len: got %d, want %d", got, want)
	}
	if a := s.Schema().Attr(2); a.Kind != relation.Numeric || a.Role != relation.QI {
		t.Fatalf("AGE attr not parsed as qi:numeric: %+v", a)
	}
	got, err := s.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	sameRows(t, want, got)
}

func TestStreamReadChunkSharesDictionaries(t *testing.T) {
	schema := streamSchema(t)
	s, err := relation.NewCSVStream(strings.NewReader(streamCSV), schema)
	if err != nil {
		t.Fatalf("NewCSVStream: %v", err)
	}
	var chunks []*relation.Relation
	for {
		chunk, err := s.ReadChunk(2)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadChunk: %v", err)
		}
		chunks = append(chunks, chunk)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if got := chunks[2].Len(); got != 1 {
		t.Fatalf("final short chunk: got %d rows, want 1", got)
	}
	// Codes must be comparable across chunks: rows 0 and 3 of the data share
	// value b0 for attribute B, and land in chunks 0 and 1 respectively.
	if c0, c1 := chunks[0].Row(0)[1], chunks[1].Row(1)[1]; c0 != c1 {
		t.Fatalf("chunks do not share dictionaries: b0 coded %d vs %d", c0, c1)
	}
	for _, chunk := range chunks {
		if chunk.Dict(0) != s.Relation().Dict(0) {
			t.Fatalf("chunk dictionary is not the stream's")
		}
	}
	// After EOF the stream stays exhausted.
	if _, err := s.ReadChunk(2); err != io.EOF {
		t.Fatalf("ReadChunk after EOF: got %v, want io.EOF", err)
	}
	if _, err := s.ReadChunk(0); err == nil || !strings.Contains(err.Error(), "maxRows") {
		t.Fatalf("ReadChunk(0): got %v, want maxRows error", err)
	}
}

func TestStreamErrors(t *testing.T) {
	schema := streamSchema(t)
	if _, err := relation.NewCSVStream(strings.NewReader("A,AGE\n"), schema); err == nil ||
		!strings.Contains(err.Error(), `missing attribute "B"`) {
		t.Fatalf("missing column: got %v", err)
	}
	const ragged = "A,B,AGE\na0,b0,30\na1,b1\n"
	s, err := relation.NewCSVStream(strings.NewReader(ragged), schema)
	if err != nil {
		t.Fatalf("NewCSVStream: %v", err)
	}
	if chunk, err := s.ReadChunk(1); err != nil || chunk.Len() != 1 {
		t.Fatalf("first row: got %v, %v", chunk, err)
	}
	if _, err := s.ReadChunk(1); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("ragged row: got %v, want line 3 error", err)
	}
	s, err = relation.NewCSVStream(strings.NewReader(ragged), schema)
	if err != nil {
		t.Fatalf("NewCSVStream: %v", err)
	}
	if _, err := s.ReadAll(); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("ReadAll over a ragged row: got %v, want line 3 error", err)
	}
}
