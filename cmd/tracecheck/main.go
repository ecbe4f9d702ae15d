// Command tracecheck validates a Chrome trace-event JSON file (the format
// `diva -profile` writes and Perfetto/chrome://tracing load): the document
// must parse, carry a non-empty traceEvents array, and every event must have
// a name, a phase, a non-negative timestamp, and — for complete ("X")
// events — a non-negative duration. The aggregate instant events the profile
// exporter derives from trace.KindShard and trace.KindSplit streams (cat
// "shard" and "split") must additionally carry their well-formed argument
// sets: a shard plan needs non-negative components/component_rows, baseline
// cuts need non-negative splits/leaves/cut_wall_us/max_depth with leaves > 0
// whenever cuts were made. Exit status 0 means the file is loadable; 1 names
// the first violation. It exists so CI can assert profile exports without a
// browser.
//
// With -flight the argument is instead a flight-recorder dump (the JSON the
// ops server serves at /debug/diva/runs/{id}/events): every event kind must
// parse, sequence numbers must be consecutive and ascending, offsets
// monotone non-decreasing, and the seen total must match the newest retained
// entry. A run-end entry must carry the run's metrics, with a total equal to
// the entry's elapsed time and at least one phase.
//
// Usage:
//
//	tracecheck trace.json
//	tracecheck -flight events.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"diva/internal/obs"
	"diva/internal/trace"
)

type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string                     `json:"name"`
	Ph   string                     `json:"ph"`
	Ts   *float64                   `json:"ts"`
	Dur  *float64                   `json:"dur"`
	Pid  *int                       `json:"pid"`
	Tid  *int                       `json:"tid"`
	Cat  string                     `json:"cat"`
	Args map[string]json.RawMessage `json:"args"`
}

func main() {
	flight := flag.Bool("flight", false, "validate a flight-recorder dump (/debug/diva/runs/{id}/events JSON) instead of a Chrome trace")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-flight] file.json")
		os.Exit(2)
	}
	checker := check
	if *flight {
		checker = checkFlight
	}
	if err := checker(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	fmt.Println("tracecheck: ok")
}

// checkFlight validates a flight-recorder dump: parseable kinds, consecutive
// ascending sequence numbers, monotone offsets, a seen total matching the
// newest retained entry, and well-formed run-end metrics.
func checkFlight(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc obs.FlightDump
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.Run == 0 {
		return fmt.Errorf("%s: missing run ID", path)
	}
	if len(doc.Events) == 0 {
		return fmt.Errorf("%s: events is empty", path)
	}
	kinds := map[string]int{}
	for i, e := range doc.Events {
		if e.Seq == 0 {
			return fmt.Errorf("%s: event %d has no sequence number", path, i)
		}
		if i > 0 {
			if e.Seq != doc.Events[i-1].Seq+1 {
				return fmt.Errorf("%s: event %d: seq %d follows %d (ring tail must be gap-free)",
					path, i, e.Seq, doc.Events[i-1].Seq)
			}
			if e.At < doc.Events[i-1].At {
				return fmt.Errorf("%s: event %d: offset %v precedes %v", path, i, e.At, doc.Events[i-1].At)
			}
		}
		if e.At < 0 {
			return fmt.Errorf("%s: event %d has a negative offset", path, i)
		}
		if e.Event.Kind == trace.KindRunEnd {
			if err := checkRunEnd(e.Event); err != nil {
				return fmt.Errorf("%s: run-end event %d: %w", path, i, err)
			}
		}
		kinds[e.Event.Kind.String()]++
	}
	if last := doc.Events[len(doc.Events)-1].Seq; doc.Seen != last {
		return fmt.Errorf("%s: seen %d does not match newest entry seq %d", path, doc.Seen, last)
	}
	fmt.Printf("tracecheck: %s: run %d, %d events retained of %d seen (",
		path, doc.Run, len(doc.Events), doc.Seen)
	first := true
	for k := trace.KindPhaseStart; k <= trace.KindRunEnd; k++ {
		if kinds[k.String()] == 0 {
			continue
		}
		if !first {
			fmt.Print(", ")
		}
		first = false
		fmt.Printf("%d %s", kinds[k.String()], k)
	}
	fmt.Println(")")
	return nil
}

// checkRunEnd asserts a run-end event carries the run's metrics: present,
// totaling the event's elapsed time, with at least one phase.
func checkRunEnd(ev trace.Event) error {
	m := ev.Metrics
	switch {
	case m == nil:
		return fmt.Errorf("no metrics")
	case m.Total != ev.Elapsed:
		return fmt.Errorf("metrics.total_ns %d differs from elapsed_ns %d", m.Total, ev.Elapsed)
	case len(m.Phases) == 0:
		return fmt.Errorf("metrics.phases is empty")
	}
	return nil
}

// shardArgs and splitArgs are the argument sets the profile exporter stamps
// on its KindShard/KindSplit aggregate events; every key must be present and
// non-negative for the event to be considered well-formed.
var (
	shardArgs = []string{"components", "component_rows"}
	splitArgs = []string{"splits", "leaves", "cut_wall_us", "max_depth"}
)

func check(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s: traceEvents is empty", path)
	}
	counts := map[string]int{}
	cats := map[string]int{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		if ev.Ph == "" {
			return fmt.Errorf("%s: event %d (%q) has no phase", path, i, ev.Name)
		}
		if ev.Ts == nil || *ev.Ts < 0 {
			return fmt.Errorf("%s: event %d (%q) has a missing or negative ts", path, i, ev.Name)
		}
		if ev.Pid == nil || ev.Tid == nil {
			return fmt.Errorf("%s: event %d (%q) lacks pid/tid", path, i, ev.Name)
		}
		if ev.Ph == "X" && (ev.Dur == nil || *ev.Dur < 0) {
			return fmt.Errorf("%s: complete event %d (%q) has a missing or negative dur", path, i, ev.Name)
		}
		switch ev.Cat {
		case "shard":
			if err := checkArgs(ev, shardArgs); err != nil {
				return fmt.Errorf("%s: shard event %d: %w", path, i, err)
			}
		case "split":
			if err := checkArgs(ev, splitArgs); err != nil {
				return fmt.Errorf("%s: split event %d: %w", path, i, err)
			}
			if err := checkLeaves(ev); err != nil {
				return fmt.Errorf("%s: split event %d: %w", path, i, err)
			}
		}
		counts[ev.Ph]++
		if ev.Cat != "" {
			cats[ev.Cat]++
		}
	}
	fmt.Printf("tracecheck: %s: %d events (", path, len(doc.TraceEvents))
	first := true
	for _, ph := range []string{"M", "X", "B", "E", "i"} {
		if counts[ph] == 0 {
			continue
		}
		if !first {
			fmt.Print(", ")
		}
		first = false
		fmt.Printf("%d %s", counts[ph], ph)
	}
	fmt.Print(")")
	for _, cat := range []string{"shard", "split"} {
		if cats[cat] > 0 {
			fmt.Printf(", %d %s", cats[cat], cat)
		}
	}
	fmt.Println()
	return nil
}

// checkArgs asserts every named argument is present and a non-negative
// number.
func checkArgs(ev traceEvent, keys []string) error {
	if ev.Args == nil {
		return fmt.Errorf("(%q) has no args", ev.Name)
	}
	for _, key := range keys {
		raw, ok := ev.Args[key]
		if !ok {
			return fmt.Errorf("(%q) missing arg %q", ev.Name, key)
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("(%q) arg %q is not a number: %s", ev.Name, key, raw)
		}
		if v < 0 {
			return fmt.Errorf("(%q) arg %q is negative: %g", ev.Name, key, v)
		}
	}
	return nil
}

// checkLeaves enforces the split invariant: any event reporting cuts must
// also report the leaf partitions those cuts produced.
func checkLeaves(ev traceEvent) error {
	var splits, leaves float64
	json.Unmarshal(ev.Args["splits"], &splits)
	json.Unmarshal(ev.Args["leaves"], &leaves)
	if splits > 0 && leaves == 0 {
		return fmt.Errorf("(%q) reports %g splits but zero leaves", ev.Name, splits)
	}
	return nil
}
