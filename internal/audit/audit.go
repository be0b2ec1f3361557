// Package audit is a pluggable runtime invariant checker for the
// simulation's conservation-style bookkeeping. The paper's results are
// ratios of counters (P_CB, P_HD — Tables 2–3) over ledgers of per-cell
// used bandwidth B_u and target reservation B_r (Eqs. 5–6); a single
// double-release or forgotten pledge silently corrupts every number
// downstream. A Checker re-verifies the ledgers after simulation events
// and panics with a structured Violation the moment one drifts, so bugs
// surface at the event that introduced them instead of three PRs later.
//
// A Checker holds only configuration and is safe to share across
// concurrently running Networks (internal/runner worker pools). The
// per-engine and per-counter invariants live here; cross-layer checks
// (connection lifecycle, pledge and wired-path conservation) are
// assembled by internal/cellnet from these primitives plus Failf.
package audit

import (
	"bytes"
	"fmt"
	"math"

	"cellqos/internal/core"
	"cellqos/internal/stats"
)

// Violation is a structured invariant-violation report. It implements
// error; the checker delivers it by panicking, so a violation aborts the
// run it corrupted (internal/runner converts the panic into a per-point
// error without taking down sibling scenarios).
type Violation struct {
	// Invariant names the broken rule (e.g. "bandwidth-conservation").
	Invariant string
	// Cell locates the violation ("cell 3", "backbone", "system").
	Cell string
	// Time is the simulation clock when the check ran.
	Time float64
	// Detail states what went wrong, with the offending values.
	Detail string
	// Snapshot is the ledger or counter state backing the verdict.
	Snapshot string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("audit: %s violated at t=%.6g (%s): %s [snapshot: %s]",
		v.Invariant, v.Time, v.Cell, v.Detail, v.Snapshot)
}

// Checker verifies conservation invariants. The zero value checks at
// every opportunity; it has no mutable state, so one Checker may be
// shared by any number of simulations.
type Checker struct {
	// EveryN samples event-boundary checks: only events whose index is a
	// multiple of EveryN are verified (≤ 1 means every event). End-of-run
	// checks (cellnet.Snapshot) always run in full regardless.
	EveryN int
}

// Sample reports whether the event-boundary check should run for the
// eventIndex-th fired event. A nil Checker never samples.
func (c *Checker) Sample(eventIndex uint64) bool {
	if c == nil {
		return false
	}
	if c.EveryN <= 1 {
		return true
	}
	return eventIndex%uint64(c.EveryN) == 0
}

// Failf reports a violation: it panics with a *Violation built from the
// arguments. Higher layers use it for cross-layer invariants the Checker
// cannot see on its own (connection lifecycle, wired conservation).
func (c *Checker) Failf(invariant, cell string, now float64, snapshot, format string, args ...any) {
	panic(&Violation{
		Invariant: invariant,
		Cell:      cell,
		Time:      now,
		Detail:    fmt.Sprintf(format, args...),
		Snapshot:  snapshot,
	})
}

// Engine verifies one cell's bandwidth ledger:
//
//   - bandwidth conservation: 0 ≤ B_u, Σ granted == B_u, pledged ≥ 0,
//     and committed = B_u + pledged ≤ C + hand-off margin (the margin is
//     the §7 CDMA soft-capacity allowance; 0 in the paper's FCA runs);
//   - per-connection sanity: every record has 0 < min ≤ bw ≤ max and a
//     consistent table index (Ledger.BadConn);
//   - reservation sanity: B_r is finite, non-negative, and bounded by
//     Eq. 6's worst case Σ_{i∈A} B_{i,this} ≤ degree × (C + margin) —
//     each neighbor's Eq. 5 sum is capped by its own committed bandwidth,
//     so B_r can exceed one cell's capacity but never the neighborhood's;
//   - T_est sanity: adaptive policies keep the estimation window at or
//     above the controller's 1 s floor (Fig. 6) and finite.
func (c *Checker) Engine(cell string, now float64, l core.Ledger) {
	snap := fmt.Sprintf("%+v", l)
	fail := func(invariant, format string, args ...any) {
		c.Failf(invariant, cell, now, snap, format, args...)
	}
	if l.Used < 0 {
		fail("bandwidth-conservation", "B_u = %d is negative", l.Used)
	}
	if l.SumBw != l.Used {
		fail("bandwidth-conservation", "Σ granted bandwidth %d != tracked B_u %d", l.SumBw, l.Used)
	}
	if l.Pledged < 0 {
		fail("bandwidth-conservation", "pledged bandwidth %d is negative", l.Pledged)
	}
	if limit := l.Capacity + l.Margin; l.Used+l.Pledged > limit {
		fail("bandwidth-conservation", "committed %d (B_u %d + pledged %d) exceeds capacity+margin %d",
			l.Used+l.Pledged, l.Used, l.Pledged, limit)
	}
	if l.BadConn != "" {
		fail("connection-record", "%s", l.BadConn)
	}
	if math.IsNaN(l.LastBr) || math.IsInf(l.LastBr, 0) || l.LastBr < 0 {
		fail("reservation-sanity", "B_r = %v is not a finite non-negative value", l.LastBr)
	}
	if max := float64(l.Degree * (l.Capacity + l.Margin)); l.LastBr > max {
		fail("reservation-sanity", "B_r = %v exceeds the Eq. 6 bound %v (degree %d × (C %d + margin %d))",
			l.LastBr, max, l.Degree, l.Capacity, l.Margin)
	}
	if l.Adaptive {
		if math.IsNaN(l.Test) || math.IsInf(l.Test, 0) || l.Test < 1 {
			fail("test-window", "T_est = %v outside the controller's [1s, ∞) range", l.Test)
		}
	}
	if l.DegradedBrCalcs > l.BrCalcs {
		fail("degraded-accounting", "degraded B_r calcs %d exceed total B_r calcs %d",
			l.DegradedBrCalcs, l.BrCalcs)
	}
	if l.LastBrDegraded && l.DegradedBrCalcs == 0 {
		fail("degraded-accounting", "last B_r flagged degraded but no degraded calc was counted")
	}
}

// Eq5Tolerance bounds the divergence allowed between the engine's
// incremental Eq. 5 cache and the retained from-scratch walk. The cache
// is designed to be bit-exact (same operations in the same order), so
// any drift at all points at a bookkeeping bug; the tolerance only
// leaves room for future maintainers to relax the exactness argument
// deliberately, not for rounding noise.
const Eq5Tolerance = 1e-9

// Eq5Cache verifies one engine's materialized Eq. 5 reservation view
// against the retained from-scratch computation: every finished
// per-direction sum is re-derived via eq5Scratch, every materialized
// per-connection term against a fresh Eq. 4 evaluation, and every
// connection's incremental staleness guard is re-checked (an expired
// guard the advance failed to refresh reports as an infinite
// divergence). A divergence means the fast path is answering neighbors
// with numbers the paper's Eq. 5 does not produce, corrupting every
// downstream B_r and admission decision. Only a view keyed at the
// current timestamp is re-derived (see core.VerifyEq5CacheAt): that is
// the state the event being audited actually consumed, and it keeps
// the sweep from dragging the estimator indexes backward in time.
func (c *Checker) Eq5Cache(cell string, now float64, e *core.Engine) {
	diff, checked := e.VerifyEq5CacheAt(now)
	if !checked || diff <= Eq5Tolerance {
		return
	}
	hits, misses := e.Eq5CacheStats()
	led := e.Ledger()
	c.Failf("eq5-incremental", cell, now,
		fmt.Sprintf("maxDiff=%v hits=%d misses=%d rebuilds=%d advances=%d refreshes=%d",
			diff, hits, misses, led.Eq5Rebuilds, led.Eq5Advances, led.Eq5Refreshes),
		"materialized Eq. 5 view diverges from the from-scratch walk by %v (tolerance %v)",
		diff, Eq5Tolerance)
}

// History verifies an engine's hand-off history after a checkpoint
// restore: the estimator state a service resumed from disk must be a
// fixed point of the persistence round trip. The restored engine is
// re-serialized, decoded into a scratch engine with the same
// configuration, and serialized again; any decode error or byte
// difference means the restore left state WriteHistory cannot
// faithfully represent (broken per-pair event order, a stray sample
// outside the cache cap), which would corrupt the *next* checkpoint —
// the failure would otherwise surface only after the following crash.
// It also checks the restored clock: HistoryLastEvent must be finite,
// non-negative, and not ahead of the service's resumed simulation time,
// or every subsequent Record would panic on the event-order invariant.
func (c *Checker) History(cell string, now float64, e *core.Engine) {
	last := e.HistoryLastEvent()
	snap := fmt.Sprintf("lastEvent=%v now=%v", last, now)
	if math.IsNaN(last) || math.IsInf(last, 0) || last < 0 {
		c.Failf("history-clock", cell, now, snap, "restored HistoryLastEvent = %v is not finite and non-negative", last)
	}
	if last > now {
		c.Failf("history-clock", cell, now, snap,
			"restored history's newest event %v is ahead of the resumed clock %v (Record would panic)", last, now)
	}
	var first bytes.Buffer
	if _, err := e.WriteHistory(&first); err != nil {
		c.Failf("history-rederivation", cell, now, snap, "re-serializing restored history: %v", err)
	}
	cfg := e.Config()
	cfg.Lock = nil // the scratch engine is private to this check
	scratch := core.NewEngine(cfg)
	if _, err := scratch.RestoreHistory(bytes.NewReader(first.Bytes())); err != nil {
		c.Failf("history-rederivation", cell, now, snap, "decoding re-serialized history: %v", err)
	}
	if got := scratch.HistoryLastEvent(); got != last {
		c.Failf("history-rederivation", cell, now, snap,
			"round trip moved HistoryLastEvent from %v to %v", last, got)
	}
	var second bytes.Buffer
	if _, err := scratch.WriteHistory(&second); err != nil {
		c.Failf("history-rederivation", cell, now, snap, "serializing round-tripped history: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		c.Failf("history-rederivation", cell, now,
			fmt.Sprintf("%s first=%dB second=%dB", snap, first.Len(), second.Len()),
			"restored history is not a persistence fixed point")
	}
}

// Counters verifies counter consistency: a scope can never block more
// connections than were requested nor drop more hand-offs than arrived
// (the Tables 2–3 ratios P_CB = Blocked/Requested and P_HD =
// Dropped/HandOffs must stay in [0,1]).
func (c *Checker) Counters(cell string, now float64, ct stats.Counters) {
	snap := fmt.Sprintf("%+v", ct)
	if ct.Blocked > ct.Requested {
		c.Failf("counter-consistency", cell, now, snap,
			"Blocked %d > Requested %d (P_CB would exceed 1)", ct.Blocked, ct.Requested)
	}
	if ct.Dropped > ct.HandOffs {
		c.Failf("counter-consistency", cell, now, snap,
			"Dropped %d > HandOffs %d (P_HD would exceed 1)", ct.Dropped, ct.HandOffs)
	}
}
