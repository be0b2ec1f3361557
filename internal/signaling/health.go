package signaling

import (
	"sync"
	"time"

	"cellqos/internal/clock"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed passes calls through (healthy link).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls outright until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome decides
	// between closing again and re-opening.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a per-link health tracker: after Threshold consecutive
// failures it opens and callers skip the link entirely — the engine falls
// back to its degradation policy immediately instead of burning a full
// timeout+retry cycle per B_r term on a neighbor that is known dead.
// After Cooldown one probe call is let through (half-open); success
// closes the breaker, failure re-opens it for another cooldown.
//
// All methods are safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
	opens    uint64
}

// NewBreaker builds a breaker that opens after threshold consecutive
// failures (min 1, default 3 when ≤0) and half-opens after cooldown
// (default 100 ms when ≤0).
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 100 * time.Millisecond
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: clock.Wall{}.Now}
}

// Allow reports whether a call may proceed. In the half-open state only
// one probe is admitted at a time; concurrent callers are rejected until
// the probe's Record settles the state.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Record feeds one call outcome into the tracker. Success closes the
// breaker and zeroes the failure streak; failure extends the streak
// (closed) or re-opens immediately (half-open probe lost).
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
		return
	}
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.open()
	case BreakerClosed:
		if b.fails >= b.threshold {
			b.open()
		}
	}
}

// open transitions to BreakerOpen; callers hold b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.probing = false
	b.opens++
}

// State returns the current position.
//
//cellqos:allow unreached internal/chaos's TestChaosMeshBreakerOpensAndRecovers asserts the breaker's transitions with it
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens counts transitions into the open state over the breaker's life.
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
