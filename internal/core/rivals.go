package core

import (
	"fmt"
	"math"
	"sync"
)

// This file implements three admission-control rivals from the wider
// hand-off literature, on the roster beside the paper's schemes so the
// arena (internal/arena) can rank them under identical workloads:
//
//   - "guard-dynamic": dynamic guard channels with channel borrowing —
//     the classic guard-channel scheme made adaptive by moving the guard
//     level on observed hand-off outcomes (after the dynamic
//     guard-channel literature, e.g. arXiv:1206.3375).
//   - "multi-class": adaptive multi-class degradation — the Eq. 5/6
//     reservation test backed by class-aware downgrading of lower
//     priority elastic connections (after multi-class adaptive
//     frameworks, e.g. arXiv:1502.06388).
//   - "token-bucket": an overload gate in front of the plain capacity
//     test — new-call attempts drain a per-cell token bucket so admission
//     bursts are smoothed while hand-offs bypass the gate entirely
//     (adapted from the production admission server's internal/service
//     gate, re-based from wall-clock to simulation time).

// ---------------------------------------------------------------------
// Dynamic guard channels with borrowing.

// Guard-dynamic's fixed knobs: a 5-BU starting guard adapting within
// [2,20] by 1-BU steps, relaxing after 8 clean hand-offs, borrowable
// after 30 idle seconds.
const (
	guardStart      = 5
	guardMin        = 2
	guardMax        = 20
	guardStep       = 1
	guardSuccessRun = 8
	guardBorrowIdle = 30.0
)

// guardDynamicPolicy reserves an integer guard band for hand-offs and
// adapts it per cell: every dropped hand-off raises the guard by
// guardStep, every guardSuccessRun consecutive successes lowers it by
// guardStep, within [guardMin, guardMax]. New calls may "borrow" guard
// bandwidth down to guardMin when the cell has seen no hand-off arrival
// for guardBorrowIdle seconds — idle guard capacity is lent to new calls
// instead of sitting blocked.
//
// CloneCellState gives each cell its own instance. State is guarded by
// a mutex because neighbors may read the guard level through the peer
// fan-out while the owning cell adapts it.
type guardDynamicPolicy struct {
	mu     sync.Mutex
	guard  int     // current guard level in BUs
	okRun  int     // consecutive successful hand-offs since last change
	lastHO float64 // time of the most recent hand-off arrival
}

func (g *guardDynamicPolicy) Name() string         { return "guard-dynamic" }
func (g *guardDynamicPolicy) Traits() PolicyTraits { return PolicyTraits{} }

// CloneCellState gives each cell its own guard level.
func (g *guardDynamicPolicy) CloneCellState() AdmissionPolicy {
	return &guardDynamicPolicy{guard: guardStart}
}

// FixedReservation seeds B_r^prev with the guard level and answers the
// engine's generic ComputeTargetReservation with it, so metrics and
// peer snapshots report the live guard as the cell's reservation.
func (g *guardDynamicPolicy) FixedReservation(Config) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return float64(g.guard)
}

// ObserveHandOff adapts the guard to observed hand-off pressure.
func (g *guardDynamicPolicy) ObserveHandOff(e *Engine, now float64, dropped bool) {
	g.mu.Lock()
	g.lastHO = now
	if dropped {
		g.okRun = 0
		g.guard = min(g.guard+guardStep, guardMax)
	} else {
		g.okRun++
		if g.okRun >= guardSuccessRun {
			g.okRun = 0
			g.guard = max(g.guard-guardStep, guardMin)
		}
	}
	guard := g.guard
	g.mu.Unlock()
	e.PublishReservation(float64(guard))
}

func (g *guardDynamicPolicy) DecideNew(ctx *PolicyContext) Decision {
	g.mu.Lock()
	guard := g.guard
	idle := ctx.Now-g.lastHO >= guardBorrowIdle
	g.mu.Unlock()
	total := ctx.Committed() + ctx.Bandwidth
	if total <= ctx.Capacity()-guard {
		return Decision{Admitted: true}
	}
	// Borrowing: idle guard capacity is lent down to guardMin.
	if idle && total <= ctx.Capacity()-guardMin {
		return Decision{Admitted: true}
	}
	return Decision{}
}

func (g *guardDynamicPolicy) DecideHandOff(ctx *PolicyContext) Decision {
	return handOffRoomDecision(ctx)
}

func (g *guardDynamicPolicy) ValidateConfig(cfg Config) error {
	if guardMax > cfg.Capacity {
		return fmt.Errorf("core: guard-dynamic max %d exceeds capacity %d", guardMax, cfg.Capacity)
	}
	return nil
}

// ---------------------------------------------------------------------
// Multi-class adaptive degradation.

// multiClassPolicy runs the paper's predictive reservation test (Eq. 6,
// AC1 form) but, where AC1 would block, tries to make room by degrading
// lower-priority elastic connections toward their minima — admission by
// degradation rather than rejection. Hand-offs get the same treatment
// above the plain capacity test, so a full cell sheds streaming quality
// before dropping an active call.
type multiClassPolicy struct{}

func (multiClassPolicy) Name() string         { return "multi-class" }
func (multiClassPolicy) Traits() PolicyTraits { return PolicyTraits{Adaptive: true, UsesPeers: true} }

func (multiClassPolicy) DecideNew(ctx *PolicyContext) Decision {
	br := ctx.ComputeTargetReservation()
	d := Decision{BrCalcs: 1, Degraded: ctx.BrDegraded()}
	limit := int(math.Floor(float64(ctx.Capacity()) - br))
	if ctx.Committed()+ctx.Bandwidth <= limit {
		d.Admitted = true
		return d
	}
	// Blocked at current grants: degrade strictly lower-priority
	// connections toward their minima until the request fits under the
	// same reservation-respecting limit.
	d.Admitted = ctx.DowngradeClassToFit(ctx.Bandwidth, ctx.Class, limit)
	return d
}

func (multiClassPolicy) DecideHandOff(ctx *PolicyContext) Decision {
	if ctx.HandOffRoom() {
		return Decision{Admitted: true}
	}
	// A full cell degrades streaming quality before dropping the call.
	return Decision{
		Admitted: ctx.DowngradeClassToFit(ctx.Bandwidth, ctx.Class, ctx.Capacity()+ctx.HandOffMargin()),
	}
}

// ---------------------------------------------------------------------
// Token-bucket overload gate.

// TokenBucket is a token bucket on a caller-supplied seconds axis: it
// holds at most burst tokens, starts full at time 0, and refills at
// rate tokens per second. The token-bucket policy runs one per cell on
// simulation time; service.Gate runs one on its clock's seconds since
// construction.
type TokenBucket struct {
	burst, rate  float64
	tokens, last float64
}

// NewTokenBucket returns a full bucket.
func NewTokenBucket(burst, rate float64) TokenBucket {
	return TokenBucket{burst: burst, rate: rate, tokens: burst}
}

// Take refills the bucket for the seconds since the previous call, up
// to its burst, then spends one token if at least one is there.
func (b *TokenBucket) Take(now float64) bool {
	if dt := now - b.last; dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Token-bucket's fixed knobs: bursts of 10 admissions, refilling at 0.5
// tokens per simulated second (steady-state 30 calls/min).
const (
	tokenBurst = 10
	tokenRate  = 0.5
)

// tokenBucketPolicy meters new-call admission attempts through a
// per-cell token bucket running on simulation time: each attempt needs
// one token; the bucket refills at tokenRate tokens/second up to
// tokenBurst. An empty bucket sheds the attempt outright — before any
// capacity test — which smooths admission bursts into the cell.
// Hand-offs never consume tokens: the gate protects hand-offs from
// new-call surges, not the other way around.
type tokenBucketPolicy struct {
	bucket TokenBucket
}

func (t *tokenBucketPolicy) Name() string         { return "token-bucket" }
func (t *tokenBucketPolicy) Traits() PolicyTraits { return PolicyTraits{} }

// CloneCellState gives each cell its own bucket, initially full.
func (t *tokenBucketPolicy) CloneCellState() AdmissionPolicy {
	return &tokenBucketPolicy{bucket: NewTokenBucket(tokenBurst, tokenRate)}
}

// FixedReservation: the gate reserves no bandwidth.
func (t *tokenBucketPolicy) FixedReservation(Config) float64 { return 0 }

func (t *tokenBucketPolicy) DecideNew(ctx *PolicyContext) Decision {
	// Refill on simulation time. DecideNew runs serialized per cell, so
	// the bucket needs no lock.
	if !t.bucket.Take(ctx.Now) {
		return Decision{} // shed: overload gate closed
	}
	return Decision{Admitted: ctx.Committed()+ctx.Bandwidth <= ctx.Capacity()}
}

func (t *tokenBucketPolicy) DecideHandOff(ctx *PolicyContext) Decision {
	return handOffRoomDecision(ctx)
}
