package audit

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/stats"
)

var _ error = (*Violation)(nil)

// goodLedger is a consistent adaptive-policy ledger; each test corrupts
// one field and expects the matching invariant to trip.
func goodLedger() core.Ledger {
	return core.Ledger{
		Capacity:    100,
		Margin:      0,
		Degree:      2,
		Adaptive:    true,
		Used:        10,
		Pledged:     0,
		Connections: 3,
		SumBw:       10,
		SumMin:      6,
		LastBr:      20,
		Test:        5,
	}
}

// wantViolation runs fn and asserts it panics with a *Violation for the
// named invariant, returning the report for further inspection.
func wantViolation(t *testing.T, invariant string, fn func()) *Violation {
	t.Helper()
	var got *Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want %s violation", invariant)
			}
			v, ok := r.(*Violation)
			if !ok {
				t.Fatalf("panicked with %T (%v), want *Violation", r, r)
			}
			got = v
		}()
		fn()
	}()
	if got.Invariant != invariant {
		t.Fatalf("violation invariant = %q, want %q (detail: %s)", got.Invariant, invariant, got.Detail)
	}
	return got
}

func TestGoodLedgerPasses(t *testing.T) {
	var ck Checker
	ck.Engine("cell 0", 1, goodLedger())

	// Non-adaptive ledgers carry Test = 0; that must not trip the window check.
	l := goodLedger()
	l.Adaptive = false
	l.Test = 0
	ck.Engine("cell 0", 1, l)

	// Committed bandwidth may spend the CDMA soft-capacity margin.
	l = goodLedger()
	l.Margin = 10
	l.Used, l.SumBw = 100, 100
	l.Pledged = 10
	ck.Engine("cell 0", 1, l)
}

func TestEngineViolations(t *testing.T) {
	var ck Checker
	cases := []struct {
		name      string
		invariant string
		mutate    func(*core.Ledger)
	}{
		{"negative B_u", "bandwidth-conservation", func(l *core.Ledger) { l.Used = -1; l.SumBw = -1 }},
		{"sum mismatch", "bandwidth-conservation", func(l *core.Ledger) { l.SumBw = l.Used + 3 }},
		{"negative pledge", "bandwidth-conservation", func(l *core.Ledger) { l.Pledged = -2 }},
		{"over capacity", "bandwidth-conservation", func(l *core.Ledger) { l.Used, l.SumBw = 80, 80; l.Pledged = 21 }},
		{"bad connection", "connection-record", func(l *core.Ledger) { l.BadConn = "conn 7: bw 5 outside [1,4]" }},
		{"NaN B_r", "reservation-sanity", func(l *core.Ledger) { l.LastBr = math.NaN() }},
		{"negative B_r", "reservation-sanity", func(l *core.Ledger) { l.LastBr = -0.5 }},
		{"B_r over Eq.6 bound", "reservation-sanity", func(l *core.Ledger) { l.LastBr = 201 }},
		{"T_est below floor", "test-window", func(l *core.Ledger) { l.Test = 0.25 }},
		{"infinite T_est", "test-window", func(l *core.Ledger) { l.Test = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := goodLedger()
			tc.mutate(&l)
			v := wantViolation(t, tc.invariant, func() { ck.Engine("cell 3", 42.5, l) })
			if v.Cell != "cell 3" || v.Time != 42.5 {
				t.Errorf("violation located at (%q, %v), want (cell 3, 42.5)", v.Cell, v.Time)
			}
			if v.Snapshot == "" {
				t.Error("violation carries no ledger snapshot")
			}
		})
	}
}

func TestCounterViolations(t *testing.T) {
	var ck Checker
	ck.Counters("system", 1, stats.Counters{Requested: 10, Blocked: 10, HandOffs: 5, Dropped: 5})

	v := wantViolation(t, "counter-consistency", func() {
		ck.Counters("system", 1, stats.Counters{Requested: 3, Blocked: 4})
	})
	if !strings.Contains(v.Detail, "Blocked 4 > Requested 3") {
		t.Errorf("detail %q missing counter values", v.Detail)
	}
	wantViolation(t, "counter-consistency", func() {
		ck.Counters("system", 1, stats.Counters{HandOffs: 2, Dropped: 3})
	})
}

func TestSample(t *testing.T) {
	var nilCk *Checker
	if nilCk.Sample(0) {
		t.Error("nil checker sampled")
	}
	every := &Checker{}
	for i := uint64(0); i < 5; i++ {
		if !every.Sample(i) {
			t.Fatalf("EveryN=0 skipped event %d", i)
		}
	}
	fourth := &Checker{EveryN: 4}
	var hits int
	for i := uint64(0); i < 16; i++ {
		if fourth.Sample(i) {
			hits++
		}
	}
	if hits != 4 {
		t.Errorf("EveryN=4 sampled %d of 16 events, want 4", hits)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{
		Invariant: "bandwidth-conservation",
		Cell:      "cell 9",
		Time:      123.5,
		Detail:    "B_u = -1 is negative",
		Snapshot:  "{Used:-1}",
	}
	msg := v.Error()
	for _, want := range []string{"bandwidth-conservation", "cell 9", "123.5", "B_u = -1", "{Used:-1}"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func TestFailf(t *testing.T) {
	var ck Checker
	v := wantViolation(t, "wired-conservation", func() {
		ck.Failf("wired-conservation", "backbone", 7, "snap", "links carry %d, paths need %d", 12, 10)
	})
	if v.Detail != "links carry 12, paths need 10" || v.Snapshot != "snap" {
		t.Errorf("Failf fields = %+v", v)
	}
}

// restoredEngine builds an adaptive engine, checkpoints it, and
// restores the checkpoint into a fresh engine — the state History is
// designed to verify.
func restoredEngine(t *testing.T, lastEvent float64) *core.Engine {
	t.Helper()
	cfg := core.Config{
		Capacity: 100, Degree: 2, Admission: core.MustPolicy("AC3"), PHDTarget: 0.01, TStart: 1,
		Estimation: predict.StationaryConfig(),
	}
	src := core.NewEngine(cfg)
	for i := 0; i < 10; i++ {
		src.RecordDeparture(predict.Quadruplet{
			Event: lastEvent * float64(i) / 9, Prev: 0, Next: 1, Sojourn: 3,
		})
	}
	var buf bytes.Buffer
	if _, err := src.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	dst := core.NewEngine(cfg)
	if _, err := dst.RestoreHistory(&buf); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestHistoryPassesOnCleanRestore(t *testing.T) {
	var ck Checker
	ck.History("cell 0", 100, restoredEngine(t, 90))
	// An engine without an estimator trivially passes too.
	ck.History("cell 1", 100, core.NewEngine(core.Config{Capacity: 10, Degree: 1, Admission: core.MustPolicy("none")}))
}

func TestHistoryRejectsFutureClock(t *testing.T) {
	var ck Checker
	e := restoredEngine(t, 90)
	wantViolation(t, "history-clock", func() {
		// The service resumed its clock *behind* the restored history:
		// the very next Record would panic on the event-order invariant.
		ck.History("cell 0", 50, e)
	})
}
