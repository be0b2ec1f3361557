package core

import (
	"slices"
	"strings"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// TestPolicyNameRoundTrip checks every roster policy resolves by its
// canonical name, and by that name in upper and lower case, to an
// implementation reporting the canonical name (TestPolicyStrings pins
// the built-ins' exact report spellings).
func TestPolicyNameRoundTrip(t *testing.T) {
	for _, name := range PolicyNames() {
		for _, key := range []string{name, strings.ToUpper(name), strings.ToLower(name)} {
			pol, err := PolicyByName(key)
			if err != nil {
				t.Errorf("PolicyByName(%q): %v", key, err)
				continue
			}
			if pol.Name() != name {
				t.Errorf("PolicyByName(%q).Name() = %q, want %q", key, pol.Name(), name)
			}
		}
	}
}

// TestPolicyByNameUnknown checks the error names the offender and lists
// the roster in canonical spelling, which is what CLI users see.
func TestPolicyByNameUnknown(t *testing.T) {
	_, err := PolicyByName("AC9")
	if err == nil {
		t.Fatal("want error for unknown policy")
	}
	msg := err.Error()
	for _, want := range []string{`"AC9"`, "roster: AC1, AC2, AC3, static", "guard-dynamic"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if MustPolicy("token-bucket") == nil {
		t.Fatal("MustPolicy returned nil for a roster name")
	}
}

// TestPolicyNamesComplete pins the full roster in its order: the seven
// paper-era schemes plus the three rivals. `cellsim -policy`'s help
// text and `cmd/arena -list` print this slice, and the arena ranks in
// this order.
func TestPolicyNamesComplete(t *testing.T) {
	got := PolicyNames()
	want := []string{"AC1", "AC2", "AC3", "static", "none",
		"mob-spec", "exp-dwell", "guard-dynamic", "multi-class", "token-bucket"}
	if !slices.Equal(got, want) {
		t.Fatalf("PolicyNames() = %v, want %v", got, want)
	}
}

// ---------------------------------------------------------------------
// Rival unit tests.

func guardEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(Config{Capacity: 100, Degree: 2, Admission: MustPolicy("guard-dynamic")})
}

// TestGuardDynamicAdmission exercises the guard band and its borrowing
// rule: new calls stop at C − guard unless the cell has seen no
// hand-off for guardBorrowIdle seconds, in which case idle guard
// capacity is lent down to guardMin.
func TestGuardDynamicAdmission(t *testing.T) {
	e := guardEngine(t)
	// Default guard 5: 95 fits, 96 does not (not yet idle at t=0).
	if d := e.AdmitNewRequest(0, Request{Bandwidth: 95}, nil); !d.Admitted {
		t.Fatal("95 ≤ C−guard rejected")
	}
	if d := e.AdmitNewRequest(0, Request{Bandwidth: 96}, nil); d.Admitted {
		t.Fatal("96 > C−guard admitted before idle")
	}
	// 40 s with no hand-off arrival: borrowing down to Min=2 opens.
	if d := e.AdmitNewRequest(40, Request{Bandwidth: 98}, nil); !d.Admitted {
		t.Fatal("idle borrowing did not lend guard capacity")
	}
	if d := e.AdmitNewRequest(40, Request{Bandwidth: 99}, nil); d.Admitted {
		t.Fatal("borrowing went below Min")
	}
	// A hand-off arrival resets the idle clock: borrowing closes.
	e.NoteHandOffArrival(40, false, nil)
	if d := e.AdmitNewRequest(50, Request{Bandwidth: 96}, nil); d.Admitted {
		t.Fatal("borrowing allowed 10 s after a hand-off")
	}
	// Hand-offs themselves ignore the guard band.
	if d := e.AdmitHandOffRequest(50, Request{Bandwidth: 100}, nil); !d.Admitted {
		t.Fatal("hand-off within capacity rejected")
	}
}

// TestGuardDynamicAdaptation drives the guard level through the
// observer: a drop widens the band by guardStep, guardSuccessRun clean
// hand-offs relax it, and the published reservation tracks the live level.
func TestGuardDynamicAdaptation(t *testing.T) {
	e := guardEngine(t)
	if br := e.LastTargetReservation(); br != 5 {
		t.Fatalf("initial published guard = %v, want 5", br)
	}
	e.NoteHandOffArrival(10, true, nil)
	if br := e.LastTargetReservation(); br != 6 {
		t.Fatalf("guard after drop = %v, want 6", br)
	}
	for i := 0; i < 8; i++ {
		e.NoteHandOffArrival(11+float64(i), false, nil)
	}
	if br := e.LastTargetReservation(); br != 5 {
		t.Fatalf("guard after 8 clean hand-offs = %v, want 5", br)
	}
}

// TestGuardDynamicPerCellState verifies CellStater isolation: two
// engines built from the same policy value adapt independently.
func TestGuardDynamicPerCellState(t *testing.T) {
	proto := MustPolicy("guard-dynamic")
	e1 := NewEngine(Config{Capacity: 100, Degree: 2, Admission: proto})
	e2 := NewEngine(Config{Capacity: 100, Degree: 2, Admission: proto})
	e1.NoteHandOffArrival(1, true, nil)
	if br := e1.LastTargetReservation(); br != 6 {
		t.Fatalf("e1 guard = %v, want 6", br)
	}
	if br := e2.LastTargetReservation(); br != 5 {
		t.Fatalf("e2 guard moved with e1's drop: %v, want 5", br)
	}
}

// TestTokenBucketGate exercises the overload gate: tokenBurst admissions
// pass at t=0, the empty bucket sheds, simulated time refills at tokenRate,
// and hand-offs never consume tokens.
func TestTokenBucketGate(t *testing.T) {
	e := NewEngine(Config{Capacity: 100, Degree: 1, Admission: MustPolicy("token-bucket")})
	for i := 0; i < 10; i++ {
		if d := e.AdmitNewRequest(0, Request{Bandwidth: 1}, nil); !d.Admitted {
			t.Fatalf("attempt %d shed within burst", i)
		}
	}
	if d := e.AdmitNewRequest(0, Request{Bandwidth: 1}, nil); d.Admitted {
		t.Fatal("empty bucket admitted")
	}
	// Hand-offs bypass the gate entirely.
	if d := e.AdmitHandOffRequest(0, Request{Bandwidth: 1}, nil); !d.Admitted {
		t.Fatal("hand-off gated by empty bucket")
	}
	// 2 s at 0.5 tokens/s refills exactly one token.
	if d := e.AdmitNewRequest(2, Request{Bandwidth: 1}, nil); !d.Admitted {
		t.Fatal("refilled token not honored")
	}
	if d := e.AdmitNewRequest(2, Request{Bandwidth: 1}, nil); d.Admitted {
		t.Fatal("second admission on one refilled token")
	}
	// A token only buys the attempt; the capacity test still applies.
	e.AddConnection(1, ConnSpec{Min: 100, Prev: topology.Self}, 0)
	if d := e.AdmitNewRequest(10, Request{Bandwidth: 1}, nil); d.Admitted {
		t.Fatal("token admitted past capacity")
	}
}

// TestMultiClassDegradation checks admission-by-degradation: where AC1
// blocks, multi-class shrinks strictly lower-priority streaming
// connections toward their minima to fit a real-time request, and a
// full cell degrades rather than dropping a hand-off.
func TestMultiClassDegradation(t *testing.T) {
	cfg := Config{
		Capacity: 100, Degree: 2, Admission: MustPolicy("multi-class"),
		PHDTarget: 0.01, TStart: 1, Estimation: predict.StationaryConfig(),
	}
	e := NewEngine(cfg)
	peers := &fakePeers{} // all neighbors reachable, zero Eq. 5 answers
	// One elastic streaming connection takes the whole cell (min 10).
	if grant := e.AddConnection(1, ConnSpec{Min: 10, Max: 100, Prev: topology.Self, Class: ClassStreaming}, 0); grant != 100 {
		t.Fatalf("streaming grant = %d, want 100", grant)
	}
	// AC1 on the same state blocks a 20-BU voice call outright.
	ref := NewEngine(Config{Capacity: 100, Degree: 2, Admission: MustPolicy("AC1"),
		PHDTarget: 0.01, TStart: 1, Estimation: predict.StationaryConfig()})
	ref.AddConnection(1, ConnSpec{Min: 10, Max: 100, Prev: topology.Self, Class: ClassStreaming}, 0)
	if d := ref.AdmitNewRequest(1, Request{Bandwidth: 20, Class: ClassRealTime}, peers); d.Admitted {
		t.Fatal("AC1 admitted into a full cell")
	}
	// Multi-class makes room by degrading the streaming connection.
	d := e.AdmitNewRequest(1, Request{Bandwidth: 20, Class: ClassRealTime}, peers)
	if !d.Admitted {
		t.Fatalf("multi-class did not degrade to admit: %+v", d)
	}
	if used := e.UsedBandwidth(); used != 80 {
		t.Fatalf("used after degradation = %d, want 80", used)
	}
	// Same-class requests must not cannibalize their own class.
	if d := e.AdmitNewRequest(2, Request{Bandwidth: 90, Class: ClassStreaming}, peers); d.Admitted {
		t.Fatal("streaming request degraded its own class past room")
	}
	// A hand-off into the (re-filled) cell degrades instead of dropping.
	e2 := NewEngine(cfg)
	e2.AddConnection(1, ConnSpec{Min: 10, Max: 100, Prev: topology.Self, Class: ClassStreaming}, 0)
	if d := e2.AdmitHandOffRequest(1, Request{Bandwidth: 30, Class: ClassRealTime}, peers); !d.Admitted {
		t.Fatal("hand-off dropped where degradation had room")
	}
}

// TestRivalValidateConfig checks PolicyValidator wiring: a capacity
// below guard-dynamic's maximum guard surfaces as a Config.Validate
// error.
func TestRivalValidateConfig(t *testing.T) {
	pol := MustPolicy("guard-dynamic")
	if err := (Config{Capacity: guardMax - 1, Degree: 2, Admission: pol}).Validate(); err == nil {
		t.Fatal("guard-dynamic max beyond capacity validated")
	}
	if err := (Config{Capacity: guardMax, Degree: 2, Admission: pol}).Validate(); err != nil {
		t.Fatalf("guard-dynamic at capacity %d: %v", guardMax, err)
	}
}
