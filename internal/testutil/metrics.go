package testutil

import (
	"fmt"
	"reflect"

	"diva/internal/trace"
)

// RecorderMismatch compares a caller's trace.Recorder snapshot with the
// engine's Result.Metrics on every field the event stream carries — phases
// in order, search totals, shard plan and portfolio winner — and describes
// the difference, or returns "" when they agree.
func RecorderMismatch(rec, eng *trace.RunMetrics) string {
	want := *eng
	// Only the engine knows the registry ID, the run's total wall time, the
	// portfolio size, the cancellation verdict and the published relation.
	want.RunID, want.Total, want.PortfolioWorkers, want.Canceled = 0, 0, 0, false
	want.SuppressedCells, want.Accuracy = 0, 0
	if reflect.DeepEqual(*rec, want) {
		return ""
	}
	return fmt.Sprintf("caller recorder %+v\n != engine metrics %+v", *rec, want)
}
