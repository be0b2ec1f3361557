package core

import (
	"fmt"
	"math"
	"strings"
)

// FallbackMode selects the conservative estimate substituted for an
// unreachable neighbor's Eq. 5 contribution to B_r. The paper's
// reservation scheme is distributed — every B_r computation fans out to
// the adjacent base stations (Eqs. 5–6) — so a lost or slow inter-BS
// link would otherwise silently under-reserve and let P_HD drift past
// P_HD,target exactly when the network is least healthy.
type FallbackMode int

const (
	// FallbackDecay substitutes the neighbor's last successfully fetched
	// contribution, decayed exponentially with the time since it was
	// observed (stale mobility information loses predictive value, but
	// dropping it to zero instantly is the worst possible estimate). A
	// neighbor that never answered falls back to the guard value.
	FallbackDecay FallbackMode = iota
	// FallbackGuard substitutes a static guard fraction of this cell's
	// capacity share per neighbor — the conservative per-class
	// reservation the adaptive-allocation literature falls back to when
	// prediction is unavailable.
	FallbackGuard
	// FallbackZero reproduces the legacy behavior: an unreachable
	// neighbor contributes nothing. Kept for ablation; it under-reserves
	// under faults.
	FallbackZero
)

// String names the mode.
func (m FallbackMode) String() string {
	switch m {
	case FallbackDecay:
		return "decay"
	case FallbackGuard:
		return "guard"
	case FallbackZero:
		return "zero"
	default:
		return fmt.Sprintf("FallbackMode(%d)", int(m))
	}
}

// ParseFallbackMode returns the mode whose String is name, ignoring case.
func ParseFallbackMode(name string) (FallbackMode, error) {
	var names []string
	for m := FallbackDecay; m <= FallbackZero; m++ {
		if strings.EqualFold(name, m.String()) {
			return m, nil
		}
		names = append(names, m.String())
	}
	return 0, fmt.Errorf("core: unknown fallback mode %q (want %s)", name, strings.Join(names, "|"))
}

// Fallback is the degradation policy applied when a neighbor cannot be
// reached during a B_r computation. The zero value selects FallbackDecay
// with the default time constant and guard fraction.
type Fallback struct {
	// Mode selects the conservative estimate.
	Mode FallbackMode
	// DecayTau is the e-folding time in seconds for FallbackDecay
	// (default 30 — a few mean cell-boundary crossings at paper speeds).
	DecayTau float64
	// GuardFraction is the fraction of C/Degree substituted per
	// unreachable neighbor under FallbackGuard, and the floor for
	// FallbackDecay when no last-known value exists (default 0.05).
	GuardFraction float64
}

// withDefaults fills zero fields.
func (f Fallback) withDefaults() Fallback {
	if f.DecayTau == 0 {
		f.DecayTau = 30
	}
	if f.GuardFraction == 0 {
		f.GuardFraction = 0.05
	}
	return f
}

// Validate checks fallback invariants.
func (f Fallback) Validate() error {
	if f.Mode < FallbackDecay || f.Mode > FallbackZero {
		return fmt.Errorf("core: unknown fallback mode %d", int(f.Mode))
	}
	if f.DecayTau < 0 || math.IsNaN(f.DecayTau) || math.IsInf(f.DecayTau, 0) {
		return fmt.Errorf("core: fallback decay tau %v must be a finite non-negative time", f.DecayTau)
	}
	if f.GuardFraction < 0 || f.GuardFraction > 1 || math.IsNaN(f.GuardFraction) {
		return fmt.Errorf("core: guard fraction %v outside [0,1]", f.GuardFraction)
	}
	return nil
}

// guardValue is the static conservative per-neighbor contribution.
func (f Fallback) guardValue(capacity, degree int) float64 {
	return f.GuardFraction * float64(capacity) / float64(degree)
}

// fallbackContribution computes the conservative Eq. 5 substitute for
// neighbor li under the engine lock: last-known decayed value, guard
// fraction, or zero. The result is always finite and non-negative so a
// degraded B_r still passes the audit's reservation-sanity invariant.
func (e *Engine) fallbackContribution(li int, now float64) float64 {
	f := e.cfg.Fallback.withDefaults()
	switch f.Mode {
	case FallbackZero:
		return 0
	case FallbackGuard:
		return f.guardValue(e.cfg.Capacity, e.cfg.Degree)
	}
	last, at := e.lastOut[li-1], e.lastOutAt[li-1]
	if math.IsNaN(at) {
		// Never heard from this neighbor: no history to decay.
		return f.guardValue(e.cfg.Capacity, e.cfg.Degree)
	}
	age := now - at
	if age < 0 {
		age = 0
	}
	v := last * math.Exp(-age/f.DecayTau)
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}
