// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a priority queue of timestamped
// events. Events fire in non-decreasing time order; ties are broken by
// scheduling order (FIFO), which keeps runs fully deterministic for a
// fixed random seed. The kernel knows nothing about cellular networks:
// higher layers (internal/cellnet, internal/traffic) schedule closures.
//
// Simulator is the serial kernel: one heap, one total order, one
// goroutine. internal/sim/shard provides the parallel kernel
// (conservative windows across goroutines) behind the same
// Kernel/Scheduler interfaces for sharded metro-scale runs.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Event is a callback fired at a virtual time. The callback receives the
// scheduler that is executing it so it can book follow-up events.
type Event func(s Scheduler)

// Handle identifies a scheduled event so it can be canceled: the event's
// sequence number and the queue slot it was booked into. It is valid only
// on the scheduler that issued it (every queue numbers from 1), and only
// the sequence number tells it from a later event reusing the slot. The
// zero Handle is invalid: sequence number 0 is never issued.
type Handle struct {
	seq  uint64
	slot uint32
}

// Valid reports whether h refers to an event that was actually scheduled.
func (h Handle) Valid() bool { return h.seq != 0 }

// Simulator is a discrete-event simulation driver. It is not safe for
// concurrent use; all events run on the caller's goroutine.
type Simulator struct {
	now        float64
	queue      *EventQueue
	fired      uint64
	running    bool
	stopped    bool
	afterEvent func()
}

// New returns an empty simulator with the clock at time 0.
func New() *Simulator {
	return &Simulator{queue: NewEventQueue()}
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of scheduled, not-yet-fired, not-canceled events.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Fired returns the total number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// ErrPastEvent is returned by At when an event is scheduled before Now.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// At schedules fn to run at absolute time t. It panics if t is NaN or fn
// is nil and returns ErrPastEvent if t precedes the current clock; t == Now
// is allowed (the event fires after already-queued events at the same time).
func (s *Simulator) At(t float64, fn Event) (Handle, error) {
	if t < s.now {
		return Handle{}, fmt.Errorf("%w: t=%v now=%v", ErrPastEvent, t, s.now)
	}
	return s.queue.Schedule(t, fn), nil
}

// After schedules fn to run d seconds from now. Negative d is an error.
func (s *Simulator) After(d float64, fn Event) (Handle, error) {
	return s.At(s.now+d, fn)
}

// MustAfter is After for delays known to be non-negative; it panics on error.
func (s *Simulator) MustAfter(d float64, fn Event) Handle {
	h, err := s.After(d, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Cancel prevents a scheduled event from firing in O(1) and releases its
// callback. It reports whether the event was still pending. Canceling an
// already-fired, already-canceled, or invalid handle returns false.
func (s *Simulator) Cancel(h Handle) bool { return s.queue.Cancel(h) }

// Stop aborts the run loop after the current event returns. It may be
// called from within an event callback.
func (s *Simulator) Stop() { s.stopped = true }

// AfterEvent registers fn to run after every fired event, at the event
// boundary: the event's callback has returned and all of its state
// mutations are visible, but the clock has not advanced further. Higher
// layers hang invariant checkers here (internal/audit). A nil fn removes
// the hook; when no hook is set the kernel pays only a nil check.
func (s *Simulator) AfterEvent(fn func()) { s.afterEvent = fn }

// run fires the events due by end, earliest first, until none is left or
// Stop is called. Canceled-but-unfired events are compacted away at
// teardown, so a stopped run does not retain their memory.
func (s *Simulator) run(end float64) {
	if s.running {
		panic("sim: nested Run")
	}
	if end < s.now {
		return
	}
	s.running = true
	defer func() { s.running = false }()
	defer s.queue.Compact()
	s.stopped = false
	for !s.stopped {
		at, _, fn, ok := s.queue.PopUntil(end)
		if !ok {
			break
		}
		if at < s.now {
			panic("sim: time went backwards")
		}
		s.now = at
		s.fired++
		fn(s)
		if s.afterEvent != nil {
			s.afterEvent()
		}
	}
}

// Run fires events until the queue drains or Stop is called. It returns
// the final clock value.
func (s *Simulator) Run() float64 {
	s.run(math.Inf(1))
	return s.now
}

// RunUntil fires events with timestamps ≤ end, then sets the clock to end
// and returns. Events scheduled after end remain queued. It panics if end
// is NaN, as Schedule does on a NaN time.
func (s *Simulator) RunUntil(end float64) float64 {
	if math.IsNaN(end) {
		panic("sim: NaN run end")
	}
	s.run(end)
	if !s.stopped && s.now < end {
		s.now = end
	}
	return s.now
}
