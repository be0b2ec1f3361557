package service

import (
	"sync"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
)

// Gate is a token-bucket overload shield for new-call intake: the
// bucket starts full, refills continuously at a fixed rate up to its
// capacity, and each admitted request spends one token. When the
// bucket is empty the request is shed before any admission work runs —
// the paper's hand-off priority carries into overload behavior, since
// hand-off processing never passes through the gate, only new calls
// do (§4.3 already favors hand-offs with the reserved pool; shedding
// new calls first under overload is the same preference applied to
// CPU and signaling budget).
//
// The bucket (core.TokenBucket, the token-bucket policy's) runs on
// seconds since the gate's construction on the supplied clock, so tests
// drive it deterministically with a clock.Manual. A nil *Gate admits
// everything — the disabled state needs no branches at call sites.
type Gate struct {
	mu     sync.Mutex
	bucket core.TokenBucket
	start  time.Time
	c      clock.Clock
}

// NewGate builds a gate with the given burst capacity and refill rate
// (tokens per second). A nil clock means the wall clock. Non-positive
// capacity or rate returns nil — the disabled gate.
func NewGate(capacity, ratePerSec float64, c clock.Clock) *Gate {
	if capacity <= 0 || ratePerSec <= 0 {
		return nil
	}
	if c == nil {
		c = clock.Wall{}
	}
	return &Gate{bucket: core.NewTokenBucket(capacity, ratePerSec), start: c.Now(), c: c}
}

// Allow spends one token if available; a false return means the
// request must be shed. A nil gate always allows.
func (g *Gate) Allow() bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.bucket.Take(g.c.Since(g.start).Seconds())
}
