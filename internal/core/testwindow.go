package core

import (
	"fmt"
	"math"
)

// StepPolicy selects how consecutive T_est adjustments scale. The paper
// (§4.2) fixes both increment and decrement at 1 after experimenting with
// additive (1,2,3,…) and multiplicative (1,2,4,…) step growth, which were
// "found to cause over-reactions"; the alternatives are kept here for the
// ablation benchmarks.
type StepPolicy int

const (
	// UnitStep is the paper's choice: ±1 second per adjustment.
	UnitStep StepPolicy = iota
	// AdditiveStep grows the step by 1 for each consecutive same-direction
	// adjustment (1, 2, 3, …).
	AdditiveStep
	// MultiplicativeStep doubles the step for each consecutive
	// same-direction adjustment (1, 2, 4, …).
	MultiplicativeStep
)

// String names the policy.
func (p StepPolicy) String() string {
	switch p {
	case UnitStep:
		return "unit"
	case AdditiveStep:
		return "additive"
	case MultiplicativeStep:
		return "multiplicative"
	default:
		return fmt.Sprintf("StepPolicy(%d)", int(p))
	}
}

// TestController adapts the mobility-estimation time window T_est from
// observed hand-off drops, implementing the paper's Fig. 6 pseudocode.
//
// Let w = ⌈1/P_HD,target⌉. The controller watches hand-offs into the
// cell in an observation window of W_obs hand-offs (initially w). A
// hand-off drop beyond the permitted W_obs/w budget widens the window by
// w and raises T_est; completing a window within budget lowers T_est and
// resets the window. T_est never exceeds T_soj,max (supplied per-event by
// the caller from adjacent cells' estimation functions) on the way up
// and never drops below 1 s.
type TestController struct {
	w      int // reference window size
	wObs   int // observation window size W_obs
	test   float64
	nH     int // hand-offs counted in this window
	nHD    int // drops counted in this window
	policy StepPolicy
	upRun  int // consecutive increments (for non-unit policies)
	dnRun  int // consecutive decrements

	increments uint64
	decrements uint64
}

// NewTestController builds a controller for a hand-off drop target
// (e.g. 0.01) starting from T_est = tStart (the paper's T_start, 1 s).
func NewTestController(phdTarget, tStart float64, policy StepPolicy) *TestController {
	if phdTarget <= 0 || phdTarget > 1 {
		panic(fmt.Sprintf("core: PHD target %v outside (0,1]", phdTarget))
	}
	if tStart < 1 {
		panic("core: tStart must be ≥ 1 second")
	}
	w := int(math.Ceil(1 / phdTarget))
	return &TestController{w: w, wObs: w, test: math.Floor(tStart), policy: policy}
}

// Test returns the current estimation window T_est in seconds.
func (tc *TestController) Test() float64 { return tc.test }

// Adjustments returns the lifetime counts of T_est increments and
// decrements.
func (tc *TestController) Adjustments() (up, down uint64) { return tc.increments, tc.decrements }

func (tc *TestController) step(run int) float64 {
	switch tc.policy {
	case AdditiveStep:
		return float64(run)
	case MultiplicativeStep:
		return math.Pow(2, float64(run-1))
	default:
		return 1
	}
}

// OnHandOff feeds one hand-off arrival into the controller. dropped says
// whether the hand-off was dropped for lack of bandwidth; tSojMax is the
// current T_soj,max from the adjacent cells' hand-off estimation
// functions (pass math.Inf(1) to leave T_est uncapped).
func (tc *TestController) OnHandOff(dropped bool, tSojMax float64) {
	tc.nH++
	if dropped {
		tc.nHD++
		if tc.nHD > tc.wObs/tc.w {
			tc.wObs += tc.w
			if tc.test < tSojMax {
				tc.upRun++
				tc.dnRun = 0
				tc.test += tc.step(tc.upRun)
				if tc.test > tSojMax {
					tc.test = math.Max(1, math.Floor(tSojMax))
				}
				tc.increments++
			}
		}
		return
	}
	if tc.nH > tc.wObs {
		if tc.nHD <= tc.wObs/tc.w && tc.test > 1 {
			tc.dnRun++
			tc.upRun = 0
			tc.test -= tc.step(tc.dnRun)
			if tc.test < 1 {
				tc.test = 1
			}
			tc.decrements++
		}
		tc.wObs = tc.w
		tc.nH = 0
		tc.nHD = 0
	}
}
