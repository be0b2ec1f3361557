package signaling

import (
	"time"
)

// SetClock replaces the wall clock (tests drive state transitions without
// sleeping). Call before the breaker is shared.
func (b *Breaker) SetClock(now func() time.Time) { b.now = now }
