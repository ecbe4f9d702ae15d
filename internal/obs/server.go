package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"diva/internal/trace"
)

// NewMux returns an http.ServeMux mounting the ops endpoints:
//
//	/metrics                  Prometheus text exposition of reg
//	/debug/vars               expvar (the Go runtime's cmdline and memstats)
//	/debug/pprof/*            runtime profiles (phases carry a "diva_phase" label)
//	/debug/diva/runs          JSON {"live": [...], "completed": [...]} from runs
//	/debug/diva/runs/{id}/events  the run's flight-recorder dump (JSON; live
//	                          or retained-completed runs)
//	/debug/diva/events        SSE stream of live trace events (?run={id|all},
//	                          default all; replays recorded history on connect)
//	/debug/diva/incidents     stall incidents captured by the watchdog (JSON)
//	/debug/diva/profile/{id}  a completed run's search profile (see
//	                          ?format=json|trace|folded|summary|explain); the
//	                          bare path lists retained run IDs
//	/debug/diva/history       the active run-history ledger (JSON, or a text
//	                          table with ?format=text; filter with ?outcome=,
//	                          ?key=, ?bench=, ?n=)
//	/debug/diva/history/compare  noise-floor regression report between two
//	                          records (?a=…&b=…, default prev vs latest)
//
// Every per-run endpoint reads runs. Pass Metrics and Runs (the process-wide
// defaults) for a standard ops server, or dedicated instances in tests.
func NewMux(reg *Registry, runs *RunRegistry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/diva/runs", func(w http.ResponseWriter, _ *http.Request) {
		var doc RunsDoc
		doc.Live, doc.Completed = runs.Snapshot()
		writeJSON(w, doc)
	})
	mux.HandleFunc("/debug/diva/runs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil || id == 0 {
			http.Error(w, "run ID must be a positive integer", http.StatusBadRequest)
			return
		}
		events, seen, ok := runs.RunEvents(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		if events == nil {
			events = []trace.FlightEntry{}
		}
		writeJSON(w, FlightDump{Run: id, Seen: seen, Events: events})
	})
	mux.HandleFunc("/debug/diva/events", eventsHandler(runs))
	mux.HandleFunc("/debug/diva/incidents", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Total     int64      `json:"total"`
			Incidents []Incident `json:"incidents"`
		}{Total: runs.Stalls(), Incidents: runs.Incidents()})
	})
	mux.HandleFunc("/debug/diva/profile/", profileHandler(runs))
	mux.HandleFunc("/debug/diva/history", historyHandler())
	mux.HandleFunc("/debug/diva/history/compare", historyCompareHandler())
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("diva ops server\n\n/metrics\n/debug/vars\n/debug/pprof/\n/debug/diva/runs\n/debug/diva/runs/{id}/events\n/debug/diva/events\n/debug/diva/incidents\n/debug/diva/profile/\n/debug/diva/history\n/debug/diva/history/compare\n"))
	})
	return mux
}

// RunsDoc is the /debug/diva/runs response: the live runs (ascending ID)
// and the retained completed runs (most recent first).
type RunsDoc struct {
	Live      []RunInfo `json:"live"`
	Completed []RunInfo `json:"completed"`
}

// FlightDump is the /debug/diva/runs/{id}/events response: one run's
// flight-recorder ring, oldest entry first, and the total events the run has
// seen, evicted included. EventKind's UnmarshalText rejects unknown kinds, so
// decoding a dump validates its kind vocabulary.
type FlightDump struct {
	Run    uint64              `json:"run"`
	Seen   uint64              `json:"seen"`
	Events []trace.FlightEntry `json:"events"`
}

// writeJSON writes v as indented JSON with the right content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a running ops HTTP server.
type Server struct {
	srv  *http.Server
	l    net.Listener
	runs *RunRegistry
}

// Addr returns the server's bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.l.Addr() }

// Close shuts the listener down and stops serving immediately, abandoning
// in-flight requests. Prefer Shutdown for a clean exit.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the server gracefully: the listener closes, in-flight
// requests finish, and active SSE streams are force-disconnected (they would
// otherwise hold Shutdown open forever). It returns once every handler has
// exited or ctx is done.
func (s *Server) Shutdown(ctx context.Context) error {
	// http.Server.Shutdown waits for active handlers; kick the open event
	// streams first so their handlers return.
	s.runs.Events().DropAll()
	return s.srv.Shutdown(ctx)
}

// Serve starts an ops server for the process-wide Metrics and Runs on addr
// (e.g. "127.0.0.1:9090", or ":0" for an ephemeral port) and serves in a
// background goroutine until Close or Shutdown.
func Serve(addr string) (*Server, error) {
	return serve(addr, Metrics, Runs)
}

// serve is Serve over explicit dependencies, for tests.
func serve(addr string, reg *Registry, runs *RunRegistry) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(reg, runs)}
	go srv.Serve(l)
	return &Server{srv: srv, l: l, runs: runs}, nil
}
