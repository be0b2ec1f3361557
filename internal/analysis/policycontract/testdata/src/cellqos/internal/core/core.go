// Package core is the policycontract fixture stub: just enough of the
// real cellqos/internal/core surface for fixture policies to compile
// against the same names the analyzer keys on.
package core

import "math"

// PolicyTraits mirrors the machinery declaration.
type PolicyTraits struct{ Adaptive, UsesPeers bool }

// Decision mirrors the admission outcome.
type Decision struct {
	Admitted bool
	Degraded bool
}

// Peers mirrors the core.Peers degraded-value contract.
type Peers interface {
	OutgoingReservation(li int, now, test float64) (res float64, ok bool)
	Snapshot(li int) (used, capacity int, lastBr float64, ok bool)
	RecomputeReservation(li int, now float64) (used, capacity int, br float64, ok bool)
	MaxSojourn(li int, now float64) (tSojMax float64, ok bool)
}

// PeerValue mirrors core.PeerValue.
func PeerValue(v float64, ok bool) (float64, bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return v, true
}

// PolicyContext mirrors the per-decision context.
type PolicyContext struct {
	Now       float64
	Bandwidth int
	peers     Peers
}

// Peers returns the neighbor access interface.
func (ctx *PolicyContext) Peers() Peers { return ctx.peers }

// Committed mirrors the committed-bandwidth accessor.
func (ctx *PolicyContext) Committed() int { return 0 }

// Capacity mirrors the capacity accessor.
func (ctx *PolicyContext) Capacity() int { return 0 }

// HandOffRoom mirrors the reserved-room hand-off test.
func (ctx *PolicyContext) HandOffRoom() bool { return true }

// AdmissionPolicy mirrors the pluggable policy interface.
type AdmissionPolicy interface {
	Name() string
	Traits() PolicyTraits
	DecideNew(ctx *PolicyContext) Decision
	DecideHandOff(ctx *PolicyContext) Decision
}

// CellStater mirrors the per-cell-state extension.
type CellStater interface {
	CloneCellState() AdmissionPolicy
}
