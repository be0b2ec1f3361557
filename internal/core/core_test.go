package core

import (
	"math"
	"strings"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// fakePeers scripts neighbor behavior for engine tests. Neighbors
// listed in down are unreachable: every query returns ok=false.
type fakePeers struct {
	outgoing      map[topology.LocalIndex]float64 // Eq. 5 answers per neighbor
	used          map[topology.LocalIndex]int
	capacity      map[topology.LocalIndex]int
	lastBr        map[topology.LocalIndex]float64
	freshBr       map[topology.LocalIndex]float64 // value returned on recompute
	maxSoj        map[topology.LocalIndex]float64
	down          map[topology.LocalIndex]bool
	recomputed    []topology.LocalIndex
	outgoingCalls int
}

func (f *fakePeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	f.outgoingCalls++
	if f.down[li] {
		return 0, false
	}
	return f.outgoing[li], true
}

func (f *fakePeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	if f.down[li] {
		return 0, 0, 0, false
	}
	return f.used[li], f.capacity[li], f.lastBr[li], true
}

func (f *fakePeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	if f.down[li] {
		return 0, 0, 0, false
	}
	f.recomputed = append(f.recomputed, li)
	br := f.freshBr[li]
	f.lastBr[li] = br
	return f.used[li], f.capacity[li], br, true
}

func (f *fakePeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	if f.down[li] {
		return 0, false
	}
	return f.maxSoj[li], true
}

func adaptiveConfig(policy string) Config {
	return Config{
		Capacity:   100,
		Degree:     2,
		Admission:  MustPolicy(policy),
		PHDTarget:  0.01,
		TStart:     1,
		Estimation: predict.StationaryConfig(),
	}
}

func TestEngineBandwidthAccounting(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 0)
	e.AddConnection(2, ConnSpec{Min: 1, Prev: 1}, 10)
	if e.UsedBandwidth() != 5 || e.Ledger().Connections != 2 {
		t.Fatalf("used=%d count=%d", e.UsedBandwidth(), e.Ledger().Connections)
	}
	bw, prev, at, ok := e.Connection(2)
	if !ok || bw != 1 || prev != 1 || at != 10 {
		t.Fatalf("Connection(2) = %d,%d,%v,%v", bw, prev, at, ok)
	}
	e.RemoveConnection(1)
	if e.UsedBandwidth() != 1 {
		t.Fatalf("used after remove = %d, want 1", e.UsedBandwidth())
	}
	if _, _, _, ok := e.Connection(1); ok {
		t.Fatal("removed connection still present")
	}
}

func TestEngineDuplicateConnPanics(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 1, Prev: topology.Self}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddConnection did not panic")
		}
	}()
	e.AddConnection(1, ConnSpec{Min: 1, Prev: topology.Self}, 0)
}

func TestEngineOverCapacityPanics(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 100, Prev: topology.Self}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("over-capacity AddConnection did not panic")
		}
	}()
	e.AddConnection(2, ConnSpec{Min: 1, Prev: topology.Self}, 0)
}

func TestEngineRemoveUnknownPanics(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveConnection(99) did not panic")
		}
	}()
	e.RemoveConnection(99)
}

func TestStaticAdmission(t *testing.T) {
	cfg := Config{Capacity: 100, Degree: 2, Admission: MustPolicy("static"), StaticReserve: 10}
	e := NewEngine(cfg)
	e.AddConnection(1, ConnSpec{Min: 86, Prev: topology.Self}, 0)
	// 86 + 4 = 90 ≤ 100 − 10: admitted.
	if d := e.AdmitNew(0, 4, nil); !d.Admitted || d.BrCalcs != 0 {
		t.Fatalf("static admit 4: %+v", d)
	}
	// 86 + 5 = 91 > 90: blocked.
	if d := e.AdmitNew(0, 5, nil); d.Admitted {
		t.Fatalf("static admit 5 should block: %+v", d)
	}
	// Hand-offs may use the guard band: 86 + 14 = 100 ≤ 100.
	if !e.AdmitHandOff(14) {
		t.Fatal("hand-off within capacity rejected")
	}
	if e.AdmitHandOff(15) {
		t.Fatal("hand-off beyond capacity admitted")
	}
	if e.LastTargetReservation() != 10 {
		t.Fatalf("static B_r = %v, want 10", e.LastTargetReservation())
	}
}

func TestNonePolicyAdmission(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	e.AddConnection(1, ConnSpec{Min: 9, Prev: topology.Self}, 0)
	if d := e.AdmitNew(0, 1, nil); !d.Admitted {
		t.Fatal("None policy must admit up to capacity")
	}
	if d := e.AdmitNew(0, 2, nil); d.Admitted {
		t.Fatal("None policy admitted beyond capacity")
	}
}

func TestOutgoingReservationEq5(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	// History: from prev 1, mobiles hand off to next 2 after 30 s (3
	// observations) or to next 1 after 60 s (1 observation).
	for i := 0; i < 3; i++ {
		e.RecordDeparture(predict.Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 30})
	}
	e.RecordDeparture(predict.Quadruplet{Event: 3, Prev: 1, Next: 1, Sojourn: 60})

	// A 4-BU connection that entered from prev 1 at t=100, now t=110
	// (extant sojourn 10): within Test=25 s, window (10,35] catches the
	// 30-s sojourns only: p_h(→2) = 3/4.
	e.AddConnection(1, ConnSpec{Min: 4, Prev: 1}, 100)
	got := e.OutgoingReservation(110, 2, 25)
	if math.Abs(got-4*0.75) > 1e-12 {
		t.Fatalf("B toward 2 = %v, want 3", got)
	}
	// Toward next 1: the 60-s sojourn is outside (10,35]: 0.
	if got := e.OutgoingReservation(110, 1, 25); got != 0 {
		t.Fatalf("B toward 1 = %v, want 0", got)
	}
	// Longer window (10,70] catches everything: 4·(3/4) and 4·(1/4).
	if got := e.OutgoingReservation(110, 2, 60); math.Abs(got-3) > 1e-12 {
		t.Fatalf("B toward 2 long = %v, want 3", got)
	}
	if got := e.OutgoingReservation(110, 1, 60); math.Abs(got-1) > 1e-12 {
		t.Fatalf("B toward 1 long = %v, want 1", got)
	}
}

func TestOutgoingReservationMultipleConnections(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 50})
	e.AddConnection(1, ConnSpec{Min: 1, Prev: topology.Self}, 100) // extSoj 20 at t=120
	e.AddConnection(2, ConnSpec{Min: 4, Prev: topology.Self}, 110) // extSoj 10 at t=120
	// Both have p_h(→1) = 1 within Test=100: sum = 5.
	if got := e.OutgoingReservation(120, 1, 100); math.Abs(got-5) > 1e-12 {
		t.Fatalf("sum = %v, want 5", got)
	}
}

func TestComputeTargetReservationEq6(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	p := &fakePeers{outgoing: map[topology.LocalIndex]float64{1: 2.5, 2: 1.5}}
	br := e.ComputeTargetReservation(0, p)
	if br != 4 {
		t.Fatalf("B_r = %v, want 4", br)
	}
	if e.LastTargetReservation() != 4 {
		t.Fatalf("B_r^prev = %v, want 4", e.LastTargetReservation())
	}
	if e.Ledger().BrCalcs != 1 {
		t.Fatalf("BrCalcs = %d, want 1", e.Ledger().BrCalcs)
	}
	if p.outgoingCalls != 2 {
		t.Fatalf("outgoing calls = %d, want one per neighbor", p.outgoingCalls)
	}
}

func TestAC1Admission(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 90, Prev: topology.Self}, 0)
	p := &fakePeers{outgoing: map[topology.LocalIndex]float64{1: 3, 2: 3}} // B_r = 6
	// 90 + 4 = 94 ≤ 100 − 6: admitted, exactly at the boundary.
	d := e.AdmitNew(10, 4, p)
	if !d.Admitted || d.BrCalcs != 1 {
		t.Fatalf("AC1 admit: %+v", d)
	}
	// 90 + 5 = 95 > 94: blocked.
	if d := e.AdmitNew(10, 5, p); d.Admitted {
		t.Fatalf("AC1 should block: %+v", d)
	}
}

func TestAC2Admission(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC2"))
	p := &fakePeers{
		outgoing: map[topology.LocalIndex]float64{1: 1, 2: 1}, // own B_r = 2
		used:     map[topology.LocalIndex]int{1: 50, 2: 80},
		capacity: map[topology.LocalIndex]int{1: 100, 2: 100},
		lastBr:   map[topology.LocalIndex]float64{},
		freshBr:  map[topology.LocalIndex]float64{1: 10, 2: 15},
	}
	d := e.AdmitNew(0, 4, p)
	// Neighbor 1: 50 ≤ 100−10 ok; neighbor 2: 80 ≤ 100−15 ok; own:
	// 0+4 ≤ 100−2 ok. N_calc = 3 (deg 2 + self).
	if !d.Admitted || d.BrCalcs != 3 {
		t.Fatalf("AC2 admit: %+v", d)
	}
	if len(p.recomputed) != 2 {
		t.Fatalf("AC2 recomputed %v, want both neighbors", p.recomputed)
	}
	// A neighbor that cannot reserve its target blocks the admission.
	p.freshBr[2] = 25 // 80 > 100−25
	if d := e.AdmitNew(0, 4, p); d.Admitted {
		t.Fatalf("AC2 should block on neighbor overload: %+v", d)
	}
}

func TestAC3SkipsHealthyNeighbors(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC3"))
	p := &fakePeers{
		outgoing: map[topology.LocalIndex]float64{1: 1, 2: 1},
		used:     map[topology.LocalIndex]int{1: 50, 2: 80},
		capacity: map[topology.LocalIndex]int{1: 100, 2: 100},
		lastBr:   map[topology.LocalIndex]float64{1: 10, 2: 10}, // 50+10 ≤ 100, 80+10 ≤ 100
		freshBr:  map[topology.LocalIndex]float64{1: 10, 2: 10},
	}
	d := e.AdmitNew(0, 4, p)
	if !d.Admitted || d.BrCalcs != 1 {
		t.Fatalf("AC3 with healthy neighbors: %+v, want admitted with 1 calc", d)
	}
	if len(p.recomputed) != 0 {
		t.Fatalf("AC3 recomputed %v, want none", p.recomputed)
	}
}

func TestAC3RecomputesSuspectNeighbor(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC3"))
	p := &fakePeers{
		outgoing: map[topology.LocalIndex]float64{1: 1, 2: 1},
		used:     map[topology.LocalIndex]int{1: 50, 2: 95},
		capacity: map[topology.LocalIndex]int{1: 100, 2: 100},
		lastBr:   map[topology.LocalIndex]float64{1: 10, 2: 10}, // 95+10 > 100: suspect
		freshBr:  map[topology.LocalIndex]float64{1: 10, 2: 3},  // fresh: 95 ≤ 100−3 ok
	}
	d := e.AdmitNew(0, 4, p)
	if !d.Admitted || d.BrCalcs != 2 {
		t.Fatalf("AC3 with one suspect: %+v, want admitted with 2 calcs", d)
	}
	if len(p.recomputed) != 1 || p.recomputed[0] != 2 {
		t.Fatalf("AC3 recomputed %v, want [2]", p.recomputed)
	}
	// B_r,i^prev must have been refreshed on the neighbor.
	if p.lastBr[2] != 3 {
		t.Fatalf("neighbor lastBr = %v, want refreshed to 3", p.lastBr[2])
	}
	// Suspect neighbor genuinely overloaded blocks.
	p.used[2] = 99
	p.freshBr[2] = 5 // 99 > 100−5
	if d := e.AdmitNew(0, 4, p); d.Admitted {
		t.Fatalf("AC3 should block: %+v", d)
	}
}

func TestNoteHandOffArrivalDrivesController(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	p := &fakePeers{maxSoj: map[topology.LocalIndex]float64{1: 40, 2: 70}}
	e.NoteHandOffArrival(0, true, p)
	e.NoteHandOffArrival(0, true, p)
	if e.Test() != 2 {
		t.Fatalf("Test = %v, want 2 after two drops", e.Test())
	}
}

func TestNoteHandOffArrivalNoEstimationDataUncapped(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	p := &fakePeers{maxSoj: map[topology.LocalIndex]float64{1: 0, 2: 0}}
	for i := 0; i < 10; i++ {
		e.NoteHandOffArrival(0, true, p)
	}
	if e.Test() < 5 {
		t.Fatalf("Test = %v; cold-start drops must still grow T_est", e.Test())
	}
}

func TestNoteHandOffNonAdaptiveNoop(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("static"), StaticReserve: 1})
	e.NoteHandOffArrival(0, true, nil) // must not panic
	if e.Test() != 0 {
		t.Fatalf("static Test = %v, want 0", e.Test())
	}
}

func TestEngineConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid AC3", adaptiveConfig("AC3"), true},
		{"zero capacity", Config{Capacity: 0, Degree: 1, Admission: MustPolicy("none")}, false},
		{"zero degree", Config{Capacity: 10, Degree: 0, Admission: MustPolicy("none")}, false},
		{"static reserve over capacity", Config{Capacity: 10, Degree: 1, Admission: MustPolicy("static"), StaticReserve: 11}, false},
		{"adaptive bad target", Config{Capacity: 10, Degree: 1, Admission: MustPolicy("AC1"), PHDTarget: 0, TStart: 1, Estimation: predict.StationaryConfig()}, false},
		{"adaptive bad estimation", Config{Capacity: 10, Degree: 1, Admission: MustPolicy("AC1"), PHDTarget: 0.01, TStart: 1, Estimation: predict.Config{}}, false},
		{"static valid", Config{Capacity: 10, Degree: 1, Admission: MustPolicy("static"), StaticReserve: 10}, true},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	// No default scheme: a config that names none is rejected, and the
	// error lists what it could have named.
	err := Config{Capacity: 10, Degree: 1}.Validate()
	if err == nil {
		t.Fatal("nil Admission validated")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("nil-Admission error %q does not list %q", err, name)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, want := range []string{"AC1", "AC2", "AC3", "static", "none", "mob-spec", "exp-dwell"} {
		if got := MustPolicy(want).Name(); got != want {
			t.Errorf("MustPolicy(%q).Name() = %q", want, got)
		}
	}
	if !MustPolicy("AC3").Traits().Adaptive || MustPolicy("static").Traits().Adaptive || MustPolicy("none").Traits().Adaptive {
		t.Error("Adaptive trait misclassifies")
	}
}

func TestDirectionHintConcentratesReservation(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	// History from prev 1: half the mobiles went to 1, half to 2, all
	// with 30 s sojourns.
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 1, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})

	// Without a hint, a 4-BU connection splits its expected bandwidth.
	e.AddConnection(1, ConnSpec{Min: 4, Prev: 1}, 100)
	if got := e.OutgoingReservation(110, 2, 60); math.Abs(got-2) > 1e-12 {
		t.Fatalf("unhinted toward 2 = %v, want 2", got)
	}
	e.RemoveConnection(1)

	// With a §7 hint the whole 4 BUs concentrate on the known next cell,
	// timed by the sojourn distribution.
	e.AddConnection(2, ConnSpec{Min: 4, Prev: 1, Hint: 2}, 100)
	if got := e.OutgoingReservation(110, 2, 60); math.Abs(got-4) > 1e-12 {
		t.Fatalf("hinted toward 2 = %v, want 4", got)
	}
	if got := e.OutgoingReservation(110, 1, 60); got != 0 {
		t.Fatalf("hinted toward 1 = %v, want 0", got)
	}
	// A short window that excludes the 30 s sojourn reserves nothing yet.
	if got := e.OutgoingReservation(110, 2, 5); got != 0 {
		t.Fatalf("hinted short window = %v, want 0", got)
	}
}

func TestDirectionHintFallbackToMarginal(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	// No samples for pair (prev=1 → next=2), but prev-1 mobiles are known
	// to dwell ~30 s (they all went to next 1): the sojourn estimate
	// falls back to the marginal.
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 1, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: 1, Hint: 2}, 100)
	if got := e.OutgoingReservation(110, 2, 60); math.Abs(got-4) > 1e-12 {
		t.Fatalf("fallback hinted reservation = %v, want 4", got)
	}
}

func TestDirectionHintOutOfRangePanics(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	defer func() {
		if recover() == nil {
			t.Fatal("hint 9 on degree-2 cell did not panic")
		}
	}()
	e.AddConnection(1, ConnSpec{Min: 1, Prev: topology.Self, Hint: 9}, 0)
}

func TestExpDwellOutgoingReservation(t *testing.T) {
	// τ = 36 s, window T = 36 s: P(leave) = 1 − e^(−1) ≈ 0.632, split
	// uniformly over 2 neighbors.
	cfg := Config{Capacity: 100, Degree: 2, Admission: MustPolicy("exp-dwell"), ExpDwellMean: 36, ExpDwellWindow: 36}
	e := NewEngine(cfg)
	e.AddConnection(1, ConnSpec{Min: 10, Prev: topology.Self}, 0)
	want := 10 * (1 - math.Exp(-1)) / 2
	if got := e.OutgoingReservation(100, 1, 36); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpDwell outgoing = %v, want %v", got, want)
	}
	// Memorylessness: the extant sojourn must not matter — same answer
	// regardless of entry time (contrast with the estimator-based path).
	e.RemoveConnection(1)
	e.AddConnection(2, ConnSpec{Min: 10, Prev: topology.Self}, 99)
	if got := e.OutgoingReservation(100, 1, 36); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpDwell outgoing after re-entry = %v, want %v", got, want)
	}
}

func TestExpDwellAdmission(t *testing.T) {
	cfg := Config{Capacity: 100, Degree: 2, Admission: MustPolicy("exp-dwell"), ExpDwellMean: 36, ExpDwellWindow: 36}
	e := NewEngine(cfg)
	e.AddConnection(1, ConnSpec{Min: 90, Prev: topology.Self}, 0)
	p := &fakePeers{outgoing: map[topology.LocalIndex]float64{1: 3, 2: 3}}
	d := e.AdmitNew(10, 4, p)
	if !d.Admitted || d.BrCalcs != 1 {
		t.Fatalf("ExpDwell admit: %+v", d)
	}
	if d := e.AdmitNew(10, 5, p); d.Admitted {
		t.Fatalf("ExpDwell should block: %+v", d)
	}
	// The fixed window is what the fan-out receives.
	if e.Test() != 0 {
		t.Fatalf("ExpDwell has no adaptive T_est, got %v", e.Test())
	}
}

func TestExpDwellValidation(t *testing.T) {
	bad := Config{Capacity: 100, Degree: 2, Admission: MustPolicy("exp-dwell")}
	if bad.Validate() == nil {
		t.Fatal("ExpDwell without parameters validated")
	}
}

func TestPledgeAccounting(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 2, Admission: MustPolicy("mob-spec")})
	if !e.Pledge(6) {
		t.Fatal("pledge refused on empty cell")
	}
	if got := e.Ledger().Pledged; got != 6 {
		t.Fatalf("pledged = %d", got)
	}
	// used + pledged + bw must clear capacity for admissions.
	if d := e.AdmitNew(0, 5, nil); d.Admitted {
		t.Fatal("admission ignored pledges")
	}
	if d := e.AdmitNew(0, 4, nil); !d.Admitted {
		t.Fatal("admission within pledge headroom refused")
	}
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 0)
	// Hand-offs too: 4 used + 6 pledged + 1 > 10.
	if e.AdmitHandOff(1) {
		t.Fatal("hand-off broke a pledge")
	}
	// The pledged mobile arrives: unpledge then add.
	e.Unpledge(6)
	if !e.AdmitHandOff(6) {
		t.Fatal("pledged arrival refused after unpledge")
	}
	e.AddConnection(2, ConnSpec{Min: 6, Prev: 1}, 1)
	if l := e.Ledger(); l.Used != 10 || l.Pledged != 0 {
		t.Fatalf("used=%d pledged=%d", l.Used, l.Pledged)
	}
}

func TestPledgeRefusedWhenFull(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("mob-spec")})
	e.AddConnection(1, ConnSpec{Min: 8, Prev: topology.Self}, 0)
	if e.Pledge(3) {
		t.Fatal("over-capacity pledge accepted")
	}
	if e.Ledger().Pledged != 0 {
		t.Fatal("failed pledge left residue")
	}
}

func TestOverUnpledgePanics(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("mob-spec")})
	defer func() {
		if recover() == nil {
			t.Fatal("over-unpledge did not panic")
		}
	}()
	e.Unpledge(1)
}

func TestEngineMaxSojourn(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	if e.MaxSojourn(0) != 0 {
		t.Fatal("empty estimator MaxSojourn != 0")
	}
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 42})
	if got := e.MaxSojourn(2); got != 42 {
		t.Fatalf("MaxSojourn = %v, want 42", got)
	}
}
