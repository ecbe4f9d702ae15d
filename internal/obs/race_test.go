//go:build race

package obs

// Race-detector instrumentation allocates, so allocation counts are
// meaningless under -race.
func init() { raceEnabled = true }
