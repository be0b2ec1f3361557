// Package clock is the single adapter through which wall-clock time
// enters the repository. The deterministic core (internal/{core,
// predict, sim, cellnet, runner, experiments}) is timed exclusively by
// simulation timestamps; everything that genuinely needs real time —
// the bsnet service mode's pacing and checkpoint cadence, diagnostics
// like runner.PointResult.Wall, circuit-breaker cooldowns — takes a
// Clock (or calls Wall explicitly) so every wall-clock read in the
// module is greppable, mockable, and machine-enforced: the cellqos-vet
// nodeterm analyzer flags time.Now and time.Since anywhere outside
// this package (DESIGN.md §14).
//
// Wall time never stamps engine-visible events: the service stamps
// them from a deterministic service.StepSource, and wall time only
// paces its loop and checkpoint cadence.
package clock

import (
	"sync"
	"time"
)

// Clock provides time. Implementations: Wall (real time) and Manual
// (deterministic, test-driven).
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
	// Sleep pauses the caller for d (a Manual clock advances instead,
	// so paced loops run at test speed).
	Sleep(d time.Duration)
}

// Wall is the real wall clock: the module's only approved time.Now
// site.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Now().Sub(t) }

// Sleep implements Clock.
func (Wall) Sleep(d time.Duration) { time.Sleep(d) }

// Manual is a deterministic clock for tests: it only moves when
// advanced, and Sleep advances it by the requested duration so code
// paced against the clock runs at full speed under test. Safe for
// concurrent use.
type Manual struct {
	mu  sync.Mutex
	cur time.Time
}

// NewManual builds a Manual clock starting at t.
func NewManual(t time.Time) *Manual { return &Manual{cur: t} }

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur.Sub(t)
}

// Sleep implements Clock by advancing the clock; it never blocks.
func (m *Manual) Sleep(d time.Duration) { m.Advance(d) }

// Advance moves the clock forward by d (negative d panics: the clock
// is monotone by construction).
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("clock: Manual.Advance with negative duration")
	}
	m.mu.Lock()
	m.cur = m.cur.Add(d)
	m.mu.Unlock()
}
