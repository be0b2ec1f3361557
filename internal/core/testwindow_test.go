package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Window returns (n_H, n_HD, W_obs).
func (tc *TestController) Window() (nH, nHD, wObs int) { return tc.nH, tc.nHD, tc.wObs }

func TestControllerInit(t *testing.T) {
	tc := NewTestController(0.01, 1, UnitStep)
	if tc.Test() != 1 {
		t.Fatalf("initial Test = %v, want 1", tc.Test())
	}
	if _, _, wObs := tc.Window(); wObs != 100 {
		t.Fatalf("initial W_obs = %d, want w = ⌈1/0.01⌉ = 100", wObs)
	}
}

func TestControllerWComputation(t *testing.T) {
	tc := NewTestController(0.03, 1, UnitStep)
	if _, _, wObs := tc.Window(); wObs != 34 {
		t.Fatalf("W_obs = %d, want ⌈1/0.03⌉ = 34", wObs)
	}
}

func TestControllerBadTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("target 0 did not panic")
		}
	}()
	NewTestController(0, 1, UnitStep)
}

func TestControllerFirstDropTolerated(t *testing.T) {
	// W_obs/w = 1, so the first drop (n_HD = 1) is within budget: no
	// increment (Fig. 6 line 8 uses strict >).
	tc := NewTestController(0.01, 1, UnitStep)
	tc.OnHandOff(true, math.Inf(1))
	if tc.Test() != 1 {
		t.Fatalf("Test after first drop = %v, want 1", tc.Test())
	}
}

func TestControllerSecondDropIncrements(t *testing.T) {
	tc := NewTestController(0.01, 1, UnitStep)
	tc.OnHandOff(true, math.Inf(1))
	tc.OnHandOff(true, math.Inf(1))
	if tc.Test() != 2 {
		t.Fatalf("Test after second drop = %v, want 2", tc.Test())
	}
	if _, _, wObs := tc.Window(); wObs != 200 {
		t.Fatalf("W_obs = %d, want widened to 200", wObs)
	}
	// Each further drop beyond the growing budget increments again.
	tc.OnHandOff(true, math.Inf(1))
	if tc.Test() != 3 {
		t.Fatalf("Test after third drop = %v, want 3", tc.Test())
	}
}

func TestControllerCleanWindowDecrements(t *testing.T) {
	tc := NewTestController(0.01, 5, UnitStep)
	// 101 successful hand-offs complete the 100-wide window.
	for i := 0; i < 101; i++ {
		tc.OnHandOff(false, math.Inf(1))
	}
	if tc.Test() != 4 {
		t.Fatalf("Test after clean window = %v, want 4", tc.Test())
	}
	nH, nHD, wObs := tc.Window()
	if nH != 0 || nHD != 0 || wObs != 100 {
		t.Fatalf("window not reset: nH=%d nHD=%d wObs=%d", nH, nHD, wObs)
	}
}

func TestControllerFloorAtOne(t *testing.T) {
	tc := NewTestController(0.01, 1, UnitStep)
	for i := 0; i < 500; i++ {
		tc.OnHandOff(false, math.Inf(1))
	}
	if tc.Test() != 1 {
		t.Fatalf("Test = %v, want floor 1", tc.Test())
	}
	// Window still resets even when no decrement is possible.
	if nH, _, _ := tc.Window(); nH >= 101 {
		t.Fatalf("window did not reset at floor: nH = %d", nH)
	}
}

func TestControllerCapAtTSojMax(t *testing.T) {
	tc := NewTestController(0.01, 1, UnitStep)
	for i := 0; i < 50; i++ {
		tc.OnHandOff(true, 3.7)
	}
	if tc.Test() != 3 {
		t.Fatalf("Test = %v, want capped at ⌊3.7⌋ = 3", tc.Test())
	}
}

func TestControllerDropWithinBudgetAfterWiden(t *testing.T) {
	// After widening to 200, budget is 2 drops: a window with exactly 2
	// drops then 201 hand-offs decrements.
	tc := NewTestController(0.01, 3, UnitStep)
	tc.OnHandOff(true, math.Inf(1)) // nHD=1, within budget 1
	tc.OnHandOff(true, math.Inf(1)) // nHD=2 > 1: widen to 200, Test 3→4
	if tc.Test() != 4 {
		t.Fatalf("Test = %v, want 4", tc.Test())
	}
	for i := 0; i < 199; i++ { // reach nH = 201 > 200
		tc.OnHandOff(false, math.Inf(1))
	}
	if tc.Test() != 3 {
		t.Fatalf("Test after completed widened window = %v, want 3", tc.Test())
	}
}

func TestControllerAdditiveSteps(t *testing.T) {
	tc := NewTestController(0.01, 1, AdditiveStep)
	tc.OnHandOff(true, math.Inf(1))
	tc.OnHandOff(true, math.Inf(1)) // +1 → 2
	tc.OnHandOff(true, math.Inf(1)) // +2 → 4
	tc.OnHandOff(true, math.Inf(1)) // +3 → 7
	if tc.Test() != 7 {
		t.Fatalf("additive Test = %v, want 7", tc.Test())
	}
}

func TestControllerMultiplicativeSteps(t *testing.T) {
	tc := NewTestController(0.01, 1, MultiplicativeStep)
	tc.OnHandOff(true, math.Inf(1))
	tc.OnHandOff(true, math.Inf(1)) // +1 → 2
	tc.OnHandOff(true, math.Inf(1)) // +2 → 4
	tc.OnHandOff(true, math.Inf(1)) // +4 → 8
	if tc.Test() != 8 {
		t.Fatalf("multiplicative Test = %v, want 8", tc.Test())
	}
}

func TestControllerRunResetOnDirectionChange(t *testing.T) {
	tc := NewTestController(0.5, 5, AdditiveStep) // w = 2
	tc.OnHandOff(true, math.Inf(1))
	tc.OnHandOff(true, math.Inf(1)) // nHD=2 > 2/2=1: widen to 4, +1 → 6
	if tc.Test() != 6 {
		t.Fatalf("Test = %v, want 6", tc.Test())
	}
	for i := 0; i < 5; i++ { // complete window of 4: nH reaches... we already have nH=2
		tc.OnHandOff(false, math.Inf(1))
	}
	// Decrement run restarts at step 1: 6 → 5.
	if tc.Test() != 5 {
		t.Fatalf("Test = %v, want 5 (fresh decrement run)", tc.Test())
	}
}

func TestControllerAdjustmentCounters(t *testing.T) {
	tc := NewTestController(0.01, 1, UnitStep)
	tc.OnHandOff(true, math.Inf(1))
	tc.OnHandOff(true, math.Inf(1))
	up, down := tc.Adjustments()
	if up != 1 || down != 0 {
		t.Fatalf("adjustments = %d,%d want 1,0", up, down)
	}
}

// Property: under any hand-off/drop sequence, Test stays in
// [1, max(1, ⌊cap⌋)] and W_obs remains a positive multiple of w.
func TestPropertyControllerInvariants(t *testing.T) {
	f := func(seed uint64, capRaw uint8, policyRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 7))
		cap_ := 1 + float64(capRaw%50)
		tc := NewTestController(0.02, 1, StepPolicy(policyRaw%3))
		w := 50 // ⌈1/0.02⌉
		for i := 0; i < 3000; i++ {
			tc.OnHandOff(r.Float64() < 0.1, cap_)
			if tc.Test() < 1 || tc.Test() > math.Max(1, math.Floor(cap_)) {
				return false
			}
			if _, _, wObs := tc.Window(); wObs < w || wObs%w != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: a drop-free stream never increments Test.
func TestPropertyNoDropsNoGrowth(t *testing.T) {
	f := func(nRaw uint16) bool {
		tc := NewTestController(0.01, 10, UnitStep)
		for i := 0; i < int(nRaw); i++ {
			tc.OnHandOff(false, math.Inf(1))
		}
		up, _ := tc.Adjustments()
		return up == 0 && tc.Test() <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
