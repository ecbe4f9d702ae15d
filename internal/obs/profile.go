package obs

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

var profilingEnabled atomic.Bool

// EnableProfiling toggles per-run search profiling: when on, RunRegistry.Begin
// attaches a profile.Profiler to every run, and the run's completed record
// keeps the finished profile for /debug/diva/profile/{runID}. It costs span
// bookkeeping per search step, so it defaults to off and is switched on by
// the CLI together with -listen.
func EnableProfiling(on bool) { profilingEnabled.Store(on) }

// ProfilingEnabled reports whether per-run profiling is on.
func ProfilingEnabled() bool { return profilingEnabled.Load() }

// profileHandler serves /debug/diva/profile/ and
// /debug/diva/profile/{runID}?format=json|trace|folded|summary|explain from
// the registry's completed runs. The bare path lists the retained run IDs
// that carry a profile.
func profileHandler(runs *RunRegistry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/debug/diva/profile")
		rest = strings.Trim(rest, "/")
		if rest == "" {
			writeJSON(w, struct {
				Profiling bool     `json:"profiling_enabled"`
				Runs      []uint64 `json:"runs"`
			}{Profiling: ProfilingEnabled(), Runs: runs.ProfileIDs()})
			return
		}
		id, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			http.Error(w, "bad run id", http.StatusBadRequest)
			return
		}
		p := runs.Profile(id)
		if p == nil {
			http.Error(w, "no profile for run (profiling off, run too old, or never existed)", http.StatusNotFound)
			return
		}
		switch r.URL.Query().Get("format") {
		case "", "json":
			writeJSON(w, p)
		case "trace":
			w.Header().Set("Content-Type", "application/json")
			p.WriteChromeTrace(w)
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			p.WriteFoldedStacks(w)
		case "summary":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			p.WriteSummary(w)
		case "explain":
			writeJSON(w, p.Explain())
		default:
			http.Error(w, "unknown format (want json, trace, folded, summary or explain)", http.StatusBadRequest)
		}
	}
}
