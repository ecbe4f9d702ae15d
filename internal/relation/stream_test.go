package relation_test

import (
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
	got, err := s.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if got, want := got.Schema().Len(), want.Schema().Len(); got != want {
		t.Fatalf("schema len: got %d, want %d", got, want)
	}
	if a := got.Schema().Attr(2); a.Kind != relation.Numeric || a.Role != relation.QI {
		t.Fatalf("AGE attr not parsed as qi:numeric: %+v", a)
	}
	sameRows(t, want, got)
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
	if _, err := s.ReadAll(); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("ReadAll over a ragged row: got %v, want line 3 error", err)
	}
}
