//go:build race

package constraint

// Race-detector instrumentation allocates, so allocation counts are
// meaningless under -race.
func init() { raceEnabled = true }
