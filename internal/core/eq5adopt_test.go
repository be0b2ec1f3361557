package core

import (
	"math"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// adoptConfig uses a tiny N_quad so a (prev, next) pair fills in two
// records and equal-sojourn replacements become selection-invisible.
func adoptConfig() Config {
	return Config{
		Capacity: 100, Degree: 2, Admission: MustPolicy("AC1"),
		PHDTarget: 0.01, TStart: 1,
		Estimation: predict.Config{Tint: math.Inf(1), NQuad: 2},
	}
}

// TestEq5AdoptsInvisibleRecord: a selection-invisible departure record
// must not cost the materialized view anything — the view adopts the
// estimator's new generation and the next query is still a cache hit.
func TestEq5AdoptsInvisibleRecord(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 200})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)

	before := e.OutgoingReservation(100, 1, 30)
	if h, m := e.Eq5CacheStats(); h != 0 || m != 1 {
		t.Fatalf("warm-up: hits=%d misses=%d", h, m)
	}
	// Pair (1,2) is full of 30s: recording another 30 is invisible.
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 30})
	if got := e.Ledger().Eq5Adoptions; got != 1 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 1", got)
	}
	if got := e.OutgoingReservation(100, 1, 30); got != before {
		t.Fatalf("reservation moved after invisible record: %v -> %v", before, got)
	}
	if h, m := e.Eq5CacheStats(); h != 1 || m != 1 {
		t.Fatalf("post-adoption query missed: hits=%d misses=%d, want 1/1", h, m)
	}
	if r := e.Ledger().Eq5Rebuilds; r != 1 {
		t.Fatalf("view rebuilt %d times, want 1 (adoption spared the rebuild)", r)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestEq5AdoptsVisibleRecordOffLivePrev: a visible record on a prev
// direction no live connection uses cannot change any term the view
// serves, so the view adopts and only that direction's breakpoint set
// is dropped.
func TestEq5AdoptsVisibleRecordOffLivePrev(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 200})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)

	before := e.OutgoingReservation(100, 1, 30)
	// Visible record (new sojourn value) — but on prev 1, and the only
	// live connection entered from Self.
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 55})
	if got := e.Ledger().Eq5Adoptions; got != 1 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 1", got)
	}
	if got := e.OutgoingReservation(100, 1, 30); got != before {
		t.Fatalf("reservation moved: %v -> %v", before, got)
	}
	if h, m := e.Eq5CacheStats(); h != 1 || m != 1 {
		t.Fatalf("post-adoption query missed: hits=%d misses=%d, want 1/1", h, m)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestEq5RefusesVisibleRecordOnLivePrev: a visible record on a prev a
// live connection entered from CAN change the view's terms, so adoption
// must refuse, and — the staleness-laundering guard — a later invisible
// record must not adopt across the refused generation.
func TestEq5RefusesVisibleRecordOnLivePrev(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: 1}, 90)

	e.OutgoingReservation(100, 1, 30)
	// Visible (evicts a 30 for a 70) on prev 1 = the live connection's
	// entry direction: no adoption.
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 70})
	if got := e.Ledger().Eq5Adoptions; got != 0 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 0 (refusal)", got)
	}
	// Pair is now [30, 70]; recording a 30 is invisible in isolation,
	// but the view already missed a generation — adopting here would
	// launder the stale state. preGen check must refuse.
	e.RecordDeparture(predict.Quadruplet{Event: 102, Prev: 1, Next: 2, Sojourn: 30})
	if got := e.Ledger().Eq5Adoptions; got != 0 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 0 (laundering guard)", got)
	}
	// The next query rebuilds against the real history.
	e.OutgoingReservation(100, 1, 30)
	if h, m := e.Eq5CacheStats(); h != 0 || m != 2 {
		t.Fatalf("stale view served a hit: hits=%d misses=%d, want 0/2", h, m)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestLedgerReportsAdoptions: the adoption counter reaches the ledger
// snapshot next to the rebuild counters it offsets.
func TestLedgerReportsAdoptions(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)
	e.OutgoingReservation(100, 1, 30)
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 30})
	if led := e.Ledger(); led.Eq5Adoptions != 1 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 1", led.Eq5Adoptions)
	}
}
