package core

import (
	"math"
	"testing"

	"cellqos/internal/topology"
)

// TestMaxSojournClampOnDrop is the regression test for the unbounded
// T_est bug: a dead signaling link used to answer MaxSojourn with +Inf,
// which reached TestController.OnHandOff as an infinite T_soj,max and
// let the window grow without bound. The engine now clamps at the call
// site: non-finite or failed answers mark the neighbor unknown, and an
// all-unknown neighborhood freezes T_est instead of uncapping it.
func TestMaxSojournClampOnDrop(t *testing.T) {
	drops := 10
	cases := []struct {
		name     string
		peers    *fakePeers
		wantTest float64
	}{
		{
			// The old remotePeers dead-link sentinel arriving over the
			// wire: finite clamp must treat it as unknown and freeze.
			name:     "all-infinite",
			peers:    &fakePeers{maxSoj: map[topology.LocalIndex]float64{1: math.Inf(1), 2: math.Inf(1)}},
			wantTest: 1,
		},
		{
			name:     "all-unreachable",
			peers:    &fakePeers{down: map[topology.LocalIndex]bool{1: true, 2: true}},
			wantTest: 1,
		},
		{
			name:     "nan-answer",
			peers:    &fakePeers{maxSoj: map[topology.LocalIndex]float64{1: math.NaN(), 2: math.NaN()}},
			wantTest: 1,
		},
		{
			// One neighbor dark, the other supplies a real T_soj,max:
			// growth proceeds but caps at the known value.
			name: "partial-outage-caps",
			peers: &fakePeers{
				down:   map[topology.LocalIndex]bool{1: true},
				maxSoj: map[topology.LocalIndex]float64{2: 3},
			},
			wantTest: 3,
		},
		{
			// Genuine cold start — every neighbor reachable, none has
			// estimation data yet: T_est stays uncapped and grows one
			// step per over-budget drop (drops 2..10 ⇒ 1+9).
			name:     "cold-start-uncapped",
			peers:    &fakePeers{maxSoj: map[topology.LocalIndex]float64{1: 0, 2: 0}},
			wantTest: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(adaptiveConfig("AC1"))
			for i := 0; i < drops; i++ {
				e.NoteHandOffArrival(float64(i), true, tc.peers)
			}
			if got := e.Test(); got != tc.wantTest {
				t.Fatalf("T_est after %d dropped hand-offs = %v, want %v", drops, got, tc.wantTest)
			}
			if got := e.Test(); math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("T_est = %v is not finite", got)
			}
		})
	}
}

// TestFallbackContributions pins the three degradation policies for an
// unreachable neighbor's Eq. 5 term (capacity 100, degree 2; guard value
// = fraction × C/degree).
func TestFallbackContributions(t *testing.T) {
	up := map[topology.LocalIndex]float64{1: 2.5, 2: 1.5}
	cases := []struct {
		name     string
		fallback Fallback
		wantBr   float64
	}{
		{"zero", Fallback{Mode: FallbackZero}, 2.5},
		{"guard", Fallback{Mode: FallbackGuard, GuardFraction: 0.1}, 2.5 + 0.1*100/2},
		// Decay with no prior observation falls back to the default
		// guard (0.05 × 100/2 = 2.5).
		{"decay-never-heard", Fallback{}, 2.5 + 2.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := adaptiveConfig("AC1")
			cfg.Fallback = tc.fallback
			e := NewEngine(cfg)
			p := &fakePeers{outgoing: up, down: map[topology.LocalIndex]bool{2: true}}
			br := e.ComputeTargetReservation(0, p)
			if math.Abs(br-tc.wantBr) > 1e-12 {
				t.Fatalf("degraded B_r = %v, want %v", br, tc.wantBr)
			}
			if !e.BrDegraded() {
				t.Fatal("BrDegraded = false after fallback substitution")
			}
			if got := e.DegradedBrCalcs(); got != 1 {
				t.Fatalf("DegradedBrCalcs = %d, want 1", got)
			}
			l := e.Ledger()
			if l.DegradedBrCalcs != 1 || !l.LastBrDegraded {
				t.Fatalf("ledger degraded fields = %d,%v, want 1,true", l.DegradedBrCalcs, l.LastBrDegraded)
			}
		})
	}
}

// TestFallbackDecayUsesLastKnown verifies the default policy: an
// unreachable neighbor contributes its last observed Eq. 5 value decayed
// exponentially with age (τ = 30 s default), and recovery clears the
// degraded flag without losing count history.
func TestFallbackDecayUsesLastKnown(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	p := &fakePeers{outgoing: map[topology.LocalIndex]float64{1: 2.5, 2: 1.5}}

	if br := e.ComputeTargetReservation(0, p); math.Abs(br-4) > 1e-12 {
		t.Fatalf("healthy B_r = %v, want 4", br)
	}
	if e.BrDegraded() {
		t.Fatal("healthy computation flagged degraded")
	}

	p.down = map[topology.LocalIndex]bool{2: true}
	want := 2.5 + 1.5*math.Exp(-30.0/30.0)
	if br := e.ComputeTargetReservation(30, p); math.Abs(br-want) > 1e-12 {
		t.Fatalf("decayed B_r = %v, want %v", br, want)
	}
	if !e.BrDegraded() || e.DegradedBrCalcs() != 1 {
		t.Fatalf("degraded flags = %v,%d, want true,1", e.BrDegraded(), e.DegradedBrCalcs())
	}

	// Neighbor heals: the flag clears, the counter keeps its history.
	p.down = nil
	if br := e.ComputeTargetReservation(60, p); math.Abs(br-4) > 1e-12 {
		t.Fatalf("healed B_r = %v, want 4", br)
	}
	if e.BrDegraded() {
		t.Fatal("BrDegraded still set after recovery")
	}
	if got := e.DegradedBrCalcs(); got != 1 {
		t.Fatalf("DegradedBrCalcs after recovery = %d, want 1", got)
	}
}

// TestDegradedAdmissions verifies the conservative fail-closed policy:
// AC2 and AC3 reject when a neighbor's state is unknown, flag the
// decision degraded, and the engine counts it.
func TestDegradedAdmissions(t *testing.T) {
	healthy := func() *fakePeers {
		return &fakePeers{
			outgoing: map[topology.LocalIndex]float64{1: 1, 2: 1},
			used:     map[topology.LocalIndex]int{1: 10, 2: 10},
			capacity: map[topology.LocalIndex]int{1: 100, 2: 100},
			lastBr:   map[topology.LocalIndex]float64{1: 1, 2: 1},
			freshBr:  map[topology.LocalIndex]float64{1: 1, 2: 1},
		}
	}
	for _, pol := range []string{"AC2", "AC3"} {
		t.Run(pol, func(t *testing.T) {
			e := NewEngine(adaptiveConfig(pol))

			d := e.AdmitNew(0, 1, healthy())
			if !d.Admitted || d.Degraded {
				t.Fatalf("healthy decision = %+v, want admitted and not degraded", d)
			}
			if got := e.DegradedAdmissions(); got != 0 {
				t.Fatalf("DegradedAdmissions after healthy admit = %d, want 0", got)
			}

			p := healthy()
			p.down = map[topology.LocalIndex]bool{2: true}
			d = e.AdmitNew(1, 1, p)
			if d.Admitted {
				t.Fatalf("%v admitted with an unknown neighbor", pol)
			}
			if !d.Degraded {
				t.Fatalf("%v decision not flagged degraded", pol)
			}
			if got := e.DegradedAdmissions(); got != 1 {
				t.Fatalf("DegradedAdmissions = %d, want 1", got)
			}
		})
	}
}

// TestAC1DegradedStillDecides verifies AC1 keeps admitting on fallback
// data (it only needs its own B_r) but flags the decision.
func TestAC1DegradedStillDecides(t *testing.T) {
	cfg := adaptiveConfig("AC1")
	cfg.Fallback = Fallback{Mode: FallbackZero}
	e := NewEngine(cfg)
	p := &fakePeers{
		outgoing: map[topology.LocalIndex]float64{1: 1},
		down:     map[topology.LocalIndex]bool{2: true},
	}
	d := e.AdmitNew(0, 1, p)
	if !d.Admitted || !d.Degraded {
		t.Fatalf("decision = %+v, want admitted on fallback data and flagged degraded", d)
	}
	if got := e.DegradedAdmissions(); got != 1 {
		t.Fatalf("DegradedAdmissions = %d, want 1", got)
	}
}
