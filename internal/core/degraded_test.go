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
	if !e.BrDegraded() || e.Ledger().DegradedBrCalcs != 1 {
		t.Fatalf("degraded flags = %v,%d, want true,1", e.BrDegraded(), e.Ledger().DegradedBrCalcs)
	}

	// Neighbor heals: the flag clears, the counter keeps its history.
	p.down = nil
	if br := e.ComputeTargetReservation(60, p); math.Abs(br-4) > 1e-12 {
		t.Fatalf("healed B_r = %v, want 4", br)
	}
	if e.BrDegraded() {
		t.Fatal("BrDegraded still set after recovery")
	}
	if got := e.Ledger().DegradedBrCalcs; got != 1 {
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
			if got := e.Ledger().DegradedAdmissions; got != 0 {
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
			if got := e.Ledger().DegradedAdmissions; got != 1 {
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
	if got := e.Ledger().DegradedAdmissions; got != 1 {
		t.Fatalf("DegradedAdmissions = %d, want 1", got)
	}
}

// badFloatPeers is a full neighborhood (used 100/100, honest B_r = 5)
// whose links deliver bad in place of the float of Snapshot and/or
// RecomputeReservation, ok still true — a corrupt signaling frame. It
// counts the direct neighbor reads so the test can tell which policies
// make any.
type badFloatPeers struct {
	bad                     float64
	inSnapshot, inRecompute bool
	snapshots, recomputes   int
}

func (p *badFloatPeers) float(corrupt bool) float64 {
	if corrupt {
		return p.bad
	}
	return 5
}

func (p *badFloatPeers) OutgoingReservation(topology.LocalIndex, float64, float64) (float64, bool) {
	return 0, true
}

func (p *badFloatPeers) Snapshot(topology.LocalIndex) (int, int, float64, bool) {
	p.snapshots++
	return 100, 100, p.float(p.inSnapshot), true
}

func (p *badFloatPeers) RecomputeReservation(topology.LocalIndex, float64) (int, int, float64, bool) {
	p.recomputes++
	return 100, 100, p.float(p.inRecompute), true
}

func (p *badFloatPeers) MaxSojourn(topology.LocalIndex, float64) (float64, bool) { return 0, true }

// TestNeighborFloatsFailClosed pins the degraded-value contract on the
// policy side: every registered policy that reads neighbors directly
// (Snapshot / RecomputeReservation — AC2 and AC3 among the built-ins)
// must treat a non-finite or negative B_r arriving with ok=true as an
// unreachable neighbor. Against neighbors that honestly block the call,
// a corrupt float may never make the decision more permissive.
func TestNeighborFloatsFailClosed(t *testing.T) {
	decide := func(pol string, p *badFloatPeers) Decision {
		cfg := adaptiveConfig(pol)
		cfg.ExpDwellMean, cfg.ExpDwellWindow = 60, 10 // so every registered policy validates
		return NewEngine(cfg).AdmitNew(1, 1, p)
	}
	checked := 0
	for _, pol := range PolicyNames() {
		honestPeers := &badFloatPeers{}
		honest := decide(pol, honestPeers)
		if honestPeers.snapshots+honestPeers.recomputes == 0 {
			continue // decides without reading neighbors directly
		}
		checked++
		if honest.Admitted {
			t.Fatalf("%s admits against honest full neighbors: the scenario no longer blocks", pol)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -50} {
			for _, site := range []struct {
				name                    string
				inSnapshot, inRecompute bool
			}{
				{"snapshot", true, false},
				{"recompute", false, true},
				{"both", true, true},
			} {
				p := &badFloatPeers{bad: bad, inSnapshot: site.inSnapshot, inRecompute: site.inRecompute}
				d := decide(pol, p)
				if d.Admitted {
					t.Errorf("%s admitted with B_r = %v in %s where honest neighbors block: %+v", pol, bad, site.name, d)
				}
				// A rejected snapshot the policy replaced by a valid
				// fresh recompute leaves the decision on verified data
				// only; every other rejected value must be flagged.
				replaced := !site.inRecompute && p.recomputes > 0
				if !replaced && !d.Degraded {
					t.Errorf("%s not flagged degraded with B_r = %v in %s: %+v", pol, bad, site.name, d)
				}
			}
		}
	}
	if checked < 2 {
		t.Fatalf("only %d policies read neighbors directly; AC2 and AC3 must be among them", checked)
	}
}
