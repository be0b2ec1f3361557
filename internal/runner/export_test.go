package runner

import "time"

// Summary aggregates a finished sweep for progress reporting.
type Summary struct {
	// Points is the expanded point count, Errored how many failed.
	Points, Errored int
	// Events totals simulation events across points; Work totals the
	// per-point wall time (CPU-seconds of simulation, not elapsed time).
	Events uint64
	Work   time.Duration
}

// Summarize folds a point list into a Summary.
func Summarize(points []PointResult) Summary {
	var s Summary
	s.Points = len(points)
	for i := range points {
		if points[i].Err != nil {
			s.Errored++
		}
		s.Events += points[i].Events
		s.Work += points[i].Wall
	}
	return s
}
