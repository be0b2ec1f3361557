package sim

import (
	"math"
)

// Pop is PopUntil without a time bound.
func (q *EventQueue) Pop() (at float64, seq uint64, fn Event, ok bool) {
	return q.PopUntil(math.Inf(1))
}

// CanceledRetained returns the number of canceled events still occupying
// queue memory; Run and RunUntil compact this to zero at teardown. It
// exists for leak regression tests.
func (s *Simulator) CanceledRetained() int { return s.queue.CanceledRetained() }

// NextEventTime exposes the timestamp of the earliest pending event, for
// tests and pacing logic. ok is false when nothing is queued.
func (s *Simulator) NextEventTime() (t float64, ok bool) {
	t, _, ok = s.queue.PeekTime()
	return t, ok
}
