// Package a is the peervalue fixture: Peers-shaped and core.PeerValue
// calls whose ok bool is discarded, and comparisons against the deleted
// +Inf/MaxInt32 unreachable-neighbor sentinels, next to the approved
// PeerValue/ok idioms.
package a

import (
	"math"

	"cellqos/internal/core"
)

// LocalIndex mirrors topology.LocalIndex.
type LocalIndex int

// Peers mirrors the core.Peers degraded-value contract.
type Peers interface {
	OutgoingReservation(li LocalIndex, now, test float64) (res float64, ok bool)
	Snapshot(li LocalIndex) (used, capacity int, lastBr float64, ok bool)
	RecomputeReservation(li LocalIndex, now float64) (used, capacity int, br float64, ok bool)
	MaxSojourn(li LocalIndex, now float64) (tSojMax float64, ok bool)
}

// blankedOk reproduces the pre-PR-3 shape: the degraded signal thrown
// away, silence read as "contributes nothing".
func blankedOk(p Peers, li LocalIndex, now, test float64) float64 {
	v, _ := p.OutgoingReservation(li, now, test) // want `ok result of OutgoingReservation blanked`
	return v
}

func blankedSnapshot(p Peers, li LocalIndex) int {
	used, _, _, _ := p.Snapshot(li) // want `ok result of Snapshot blanked`
	return used
}

// discarded drops the whole result: the recompute side effect is kept
// but its health answer ignored.
func discarded(p Peers, li LocalIndex, now float64) {
	p.RecomputeReservation(li, now) // want `result of RecomputeReservation discarded`
}

// checkedOk branches on ok: the approved direct form.
func checkedOk(p Peers, li LocalIndex, now, test float64) float64 {
	if v, ok := p.OutgoingReservation(li, now, test); ok {
		return v
	}
	return 0
}

// wrapped passes the answer straight through the validator: the
// approved chained form.
func wrapped(p Peers, li LocalIndex, now float64) (float64, bool) {
	return core.PeerValue(p.MaxSojourn(li, now))
}

// blankedValidator runs the answer through the validator and then
// throws the verdict away: the same fail-open one call later.
func blankedValidator(p Peers, li LocalIndex, now float64) float64 {
	w, _ := core.PeerValue(p.MaxSojourn(li, now)) // want `ok result of PeerValue blanked`
	return w
}

// discardedValidator validates and ignores both results.
func discardedValidator(p Peers, li LocalIndex, now, test float64) {
	core.PeerValue(p.OutgoingReservation(li, now, test)) // want `result of PeerValue discarded`
}

// checkedValidator is the compliant chained form: verdict consumed,
// fail closed.
func checkedValidator(p Peers, li LocalIndex, now, test float64) bool {
	v, ok := core.PeerValue(p.OutgoingReservation(li, now, test))
	return ok && v < 1
}

// infSentinel resurrects the deleted "+Inf = unreachable" encoding.
func infSentinel(v float64) bool {
	return v == math.Inf(1) // want `deleted math\.Inf unreachable-neighbor sentinel`
}

// maxIntSentinel resurrects the deleted MaxInt32 encoding, through a
// conversion.
func maxIntSentinel(v float64) bool {
	return v != float64(math.MaxInt32) // want `deleted math\.MaxInt32 unreachable-neighbor sentinel`
}

// isInfValidation is the PeerValue-style demotion check itself — a
// range validation, not a sentinel protocol — and must not be flagged.
func isInfValidation(v float64) bool {
	return math.IsInf(v, 0) || math.IsNaN(v)
}

// infAssignment writes +Inf as an initial bound (the T_est controller
// cap), which is not a comparison and must not be flagged.
func infAssignment() float64 {
	return math.Inf(1)
}

// allowEscapeHatch exercises //cellqos:allow with a justification.
func allowEscapeHatch(p Peers, li LocalIndex, now float64) float64 {
	v, _ := p.MaxSojourn(li, now) //cellqos:allow peervalue fixture: probing side effect only
	return v
}

// unrelatedSnapshot has a matching name but no trailing ok bool: not a
// Peers-shaped method, so discarding its result is fine.
type unrelatedSnapshot struct{}

func (unrelatedSnapshot) Snapshot(li LocalIndex) int { return int(li) }

func notPeers(u unrelatedSnapshot) {
	u.Snapshot(3)
}
