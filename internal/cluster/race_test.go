//go:build race

package cluster

// The race detector randomly drops sync.Pool puts, so the enumeration's
// pooled scratch is reallocated and allocation counts are meaningless.
func init() { raceEnabled = true }
