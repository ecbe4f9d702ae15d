package profile

import "sync"

// Ring keeps the last N finished profiles keyed by run ID, mirroring the
// registry's last-N run ring so /debug/diva/profile/{runID} can serve
// recent runs without unbounded growth.
type Ring struct {
	mu   sync.Mutex
	cap  int
	byID map[uint64]*Profile
	fifo []uint64
}

// NewRing returns a ring that retains at most capacity profiles (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{cap: capacity, byID: make(map[uint64]*Profile)}
}

// Add inserts a finished profile, evicting the oldest when full. Profiles
// without a run ID (no run-end metrics, or metrics of an unregistered run)
// are ignored.
func (r *Ring) Add(p *Profile) {
	if p == nil || p.Metrics == nil || p.Metrics.RunID == 0 {
		return
	}
	id := p.Metrics.RunID
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[id]; !ok {
		for len(r.fifo) >= r.cap {
			delete(r.byID, r.fifo[0])
			r.fifo = r.fifo[1:]
		}
		r.fifo = append(r.fifo, id)
	}
	r.byID[id] = p
}

// Get returns the profile for a run ID, or nil.
func (r *Ring) Get(runID uint64) *Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[runID]
}

// IDs returns the retained run IDs, oldest first.
func (r *Ring) IDs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint64, len(r.fifo))
	copy(out, r.fifo)
	return out
}
