package history

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Loaded is the result of reading a ledger directory back: the records in
// file order (previous generation first, so index order is append order)
// plus how many lines were skipped as unparseable. A non-zero Skipped is
// normal after a crash mid-append — the ledger trades a torn tail line for
// never blocking the engine on fsync.
type Loaded struct {
	Records []*Record
	// Skipped counts lines that were present but not valid records
	// (torn tail after a crash, manual edits).
	Skipped int
}

// Load reads the ledger rooted at dir: the rotated generation (if any)
// followed by the active file. A missing directory or missing files load as
// empty, not as an error — "no history yet" is a normal state.
func Load(dir string) (*Loaded, error) {
	if dir == "" {
		return nil, fmt.Errorf("history: empty ledger directory")
	}
	out := &Loaded{}
	for _, name := range []string{ledgerFile + ".1", ledgerFile} {
		if err := loadFile(filepath.Join(dir, name), out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func loadFile(path string, out *Loaded) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("history: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec := &Record{}
		// A record must at least round-trip and carry an ID; anything else
		// (torn tail, stray text) is skipped, not fatal — durability of the
		// prefix is the contract, not integrity of every line.
		if err := json.Unmarshal(line, rec); err != nil {
			// An older build's flight tail may hold event kinds this build
			// no longer has; keep the run and drop only its tail.
			rec = &Record{}
			bare := struct {
				*Record
				Events json.RawMessage `json:"events"`
			}{Record: rec}
			if json.Unmarshal(line, &bare) != nil {
				rec.ID = ""
			}
		}
		if rec.ID == "" {
			out.Skipped++
			continue
		}
		out.Records = append(out.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("history: %s: %w", path, err)
	}
	return nil
}

// Filter selects ledger records. Zero fields match everything.
type Filter struct {
	// Outcome keeps only records with this outcome ("ok", "infeasible", …).
	Outcome string
	// ConfigHash / DatasetHash / Key keep only records with the given
	// fingerprint (Key is "confighash/datasethash").
	ConfigHash  string
	DatasetHash string
	Key         string
	// Since / Until bound the record time (inclusive / exclusive).
	Since time.Time
	Until time.Time
	// Bench keeps only divabench-derived records ("yes"), only engine
	// records ("no"), or both (empty).
	Bench string
}

// Match reports whether rec passes the filter.
func (f Filter) Match(rec *Record) bool {
	if f.Outcome != "" && rec.Outcome != f.Outcome {
		return false
	}
	if f.ConfigHash != "" && rec.Config.Hash() != f.ConfigHash {
		return false
	}
	if f.DatasetHash != "" && rec.Dataset.Hash() != f.DatasetHash {
		return false
	}
	if f.Key != "" && rec.Key() != f.Key {
		return false
	}
	if !f.Since.IsZero() && rec.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !rec.Time.Before(f.Until) {
		return false
	}
	switch f.Bench {
	case "yes":
		if rec.Config.Bench == "" {
			return false
		}
	case "no":
		if rec.Config.Bench != "" {
			return false
		}
	}
	return true
}

// Select returns the records matching f, preserving append order.
func Select(recs []*Record, f Filter) []*Record {
	var out []*Record
	for _, r := range recs {
		if f.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

// LatestPerKey returns, for each comparison key, the last n matching records
// in append order, keys sorted for determinism. n ≤ 0 means all.
func LatestPerKey(recs []*Record, n int) map[string][]*Record {
	byKey := make(map[string][]*Record)
	for _, r := range recs {
		byKey[r.Key()] = append(byKey[r.Key()], r)
	}
	for k, rs := range byKey {
		if n > 0 && len(rs) > n {
			byKey[k] = rs[len(rs)-n:]
		}
	}
	return byKey
}

// Keys returns the comparison keys of byKey in sorted order.
func Keys(byKey map[string][]*Record) []string {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Find resolves a record selector against recs (append order):
//
//	latest   — the last record
//	prev     — the one before the last
//	#N       — the N-th record, 1-based (negative counts from the end)
//	anything else — a record ID, or a unique prefix of one
func Find(recs []*Record, sel string) (*Record, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("history: ledger is empty")
	}
	switch sel {
	case "", "latest":
		return recs[len(recs)-1], nil
	case "prev":
		if len(recs) < 2 {
			return nil, fmt.Errorf("history: only one record, no %q", sel)
		}
		return recs[len(recs)-2], nil
	}
	if len(sel) > 1 && sel[0] == '#' {
		var n int
		if _, err := fmt.Sscanf(sel[1:], "%d", &n); err != nil {
			return nil, fmt.Errorf("history: bad selector %q", sel)
		}
		if n < 0 {
			n = len(recs) + 1 + n
		}
		if n < 1 || n > len(recs) {
			return nil, fmt.Errorf("history: selector %q out of range 1..%d", sel, len(recs))
		}
		return recs[n-1], nil
	}
	var found *Record
	for _, r := range recs {
		if r.ID == sel {
			return r, nil
		}
		if len(sel) >= 4 && len(r.ID) >= len(sel) && r.ID[:len(sel)] == sel {
			if found != nil {
				return nil, fmt.Errorf("history: selector %q is ambiguous", sel)
			}
			found = r
		}
	}
	if found == nil {
		return nil, fmt.Errorf("history: no record matches %q", sel)
	}
	return found, nil
}
