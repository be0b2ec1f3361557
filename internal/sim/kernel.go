package sim

// This file defines the kernel abstraction extracted from Simulator.
//
// Two interfaces split the discrete-event kernel's surface by audience:
//
//   - Scheduler is what event callbacks see: the clock plus the ability
//     to book, cancel, and stop. In the single-heap Simulator the
//     Scheduler is the Simulator itself; in the sharded kernel
//     (internal/sim/shard) each event receives the scheduling surface of
//     the shard it runs on, so follow-up events land in the same shard's
//     heap without synchronization.
//   - Kernel is what the simulation driver (internal/cellnet) sees: run
//     control and observability. It deliberately excludes scheduling —
//     pre-run seeding goes through a Scheduler obtained from the
//     concrete kernel, and in-run scheduling goes through the event's
//     own Scheduler argument.
//
// Simulator implements both; it is the serial kernel, and the golden
// corpus is defined by its event order.

// Scheduler books events on a kernel. Implementations are confined to
// the goroutine currently running the owning shard's events (or, before
// Run, the constructing goroutine).
type Scheduler interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// At schedules fn at absolute time t (ErrPastEvent if t < Now).
	At(t float64, fn Event) (Handle, error)
	// After schedules fn d seconds from now.
	After(d float64, fn Event) (Handle, error)
	// MustAfter is After for delays known to be non-negative.
	MustAfter(d float64, fn Event) Handle
	// Cancel prevents a scheduled event from firing and releases its
	// callback; it reports whether the event was still pending. Handles
	// are only valid on the Scheduler that issued them.
	Cancel(h Handle) bool
	// Stop aborts the run loop after the current event returns.
	Stop()
}

// Kernel is the run-control surface of a discrete-event kernel. Audit
// hooks are not part of it because the two kernels offer different
// instants: Simulator.AfterEvent fires at every event boundary,
// shard.Kernel.AtBarrier at every window barrier (events run
// concurrently there, so no global event boundary exists).
type Kernel interface {
	// Now returns the current virtual time in seconds.
	Now() float64
	// Run fires events until the queue drains or Stop is called.
	Run() float64
	// RunUntil fires events with timestamps ≤ end, then sets the clock
	// to end. It may be called repeatedly with increasing end times.
	RunUntil(end float64) float64
	// Fired returns the total number of events executed so far.
	Fired() uint64
	// Pending returns the number of scheduled, not-yet-fired,
	// not-canceled events.
	Pending() int
}

var (
	_ Scheduler = (*Simulator)(nil)
	_ Kernel    = (*Simulator)(nil)
)
