package core

import (
	"math"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// seedEq5Engine builds an AC1 engine with enough hand-off history that
// Eq. 5 sums are non-trivial in both directions, plus a few live
// connections.
func seedEq5Engine() *Engine {
	e := NewEngine(adaptiveConfig("AC1"))
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 20})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: topology.Self, Next: 2, Sojourn: 40})
	e.RecordDeparture(predict.Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)
	e.AddConnection(2, ConnSpec{Min: 2, Prev: 1}, 95)
	return e
}

func TestEq5CacheHitsAndMisses(t *testing.T) {
	e := seedEq5Engine()
	v1 := e.OutgoingReservation(100, 1, 30)
	if h, m := e.Eq5CacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", h, m)
	}
	// Same key, same direction: memoized sum, bit-identical (the fused
	// build already accumulated this direction).
	if v := e.OutgoingReservation(100, 1, 30); v != v1 {
		t.Fatalf("repeat query = %v, want %v", v, v1)
	}
	if h, m := e.Eq5CacheStats(); h != 1 || m != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", h, m)
	}
	// Same key, other direction: one more accumulation over the shared
	// per-connection base, then memoized.
	e.OutgoingReservation(100, 2, 30)
	e.OutgoingReservation(100, 2, 30)
	if h, m := e.Eq5CacheStats(); h != 2 || m != 2 {
		t.Fatalf("after second direction: hits=%d misses=%d, want 2/2", h, m)
	}
	// New timestamp, no extant sojourn crosses a selected-sojourn
	// breakpoint: the view advances in place and the finished sum is
	// still a hit — the whole point of the materialized view.
	e.OutgoingReservation(105, 1, 30)
	if h, m := e.Eq5CacheStats(); h != 3 || m != 2 {
		t.Fatalf("after advance: hits=%d misses=%d, want 3/2", h, m)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
	// At now=110 connection 1 (entered 90, prev Self) reaches ext=20 —
	// exactly the smallest selected Self-sojourn — so its guard expires:
	// the advance refreshes it, the sums are re-accumulated, and the
	// query is a miss again.
	e.OutgoingReservation(110, 1, 30)
	if h, m := e.Eq5CacheStats(); h != 3 || m != 3 {
		t.Fatalf("after breakpoint crossing: hits=%d misses=%d, want 3/3", h, m)
	}
	if led := e.Ledger(); led.Eq5Rebuilds != 1 || led.Eq5Advances != 2 || led.Eq5Refreshes != 1 {
		t.Fatalf("view stats = rebuilds %d / advances %d / refreshes %d, want 1/2/1",
			led.Eq5Rebuilds, led.Eq5Advances, led.Eq5Refreshes)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache after refresh = (%v, %v), want (0, true)", diff, checked)
	}
}

func TestEq5CacheExtendsOnSameTimestampAdd(t *testing.T) {
	e := seedEq5Engine()
	now := 100.0
	before := e.OutgoingReservation(now, 2, 30)
	// Append a connection at the cache's own timestamp: the live sums
	// extend incrementally instead of invalidating.
	e.AddConnection(3, ConnSpec{Min: 5, Prev: topology.Self}, now)
	got := e.OutgoingReservation(now, 2, 30)
	if h, _ := e.Eq5CacheStats(); h != 1 {
		t.Fatalf("post-add query was not a cache hit (hits=%d)", h)
	}
	want := e.eq5Scratch(now, 2, 30, e.patterns.Estimator(now))
	if got != want {
		t.Fatalf("extended sum %v != from-scratch %v", got, want)
	}
	if got < before {
		t.Fatalf("adding load decreased Eq. 5 sum: %v -> %v", before, got)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

func TestEq5CacheSurvivesRemove(t *testing.T) {
	e := seedEq5Engine()
	e.OutgoingReservation(100, 1, 30)
	e.RemoveConnection(1)
	// The view mirrors the swap-removal: the cached per-connection terms
	// stay live (and verifiable), only the direction sums are dropped
	// for re-accumulation in the new table order.
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache after remove = (%v, %v), want (0, true)", diff, checked)
	}
	// The next query re-accumulates over the cached terms — a miss, but
	// no full rebuild — and answers for the shrunken table.
	got := e.OutgoingReservation(100, 1, 30)
	want := e.eq5Scratch(100, 1, 30, e.patterns.Estimator(100))
	if got != want {
		t.Fatalf("post-remove query %v != from-scratch %v", got, want)
	}
	if h, m := e.Eq5CacheStats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", h, m)
	}
	if r := e.Ledger().Eq5Rebuilds; r != 1 {
		t.Fatalf("rebuilds = %d, want 1 (removal must not force a rebuild)", r)
	}
}

func TestEq5CacheInvalidatesOnNewHistory(t *testing.T) {
	e := seedEq5Engine()
	v1 := e.OutgoingReservation(100, 1, 30)
	// New quadruplet bumps the estimator generation: the cached sums
	// were computed from a selection that no longer exists.
	e.RecordDeparture(predict.Quadruplet{Event: 99, Prev: topology.Self, Next: 2, Sojourn: 10})
	got := e.OutgoingReservation(100, 1, 30)
	want := e.eq5Scratch(100, 1, 30, e.patterns.Estimator(100))
	if got != want {
		t.Fatalf("post-record query %v != from-scratch %v", got, want)
	}
	if h, m := e.Eq5CacheStats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (generation change must miss)", h, m)
	}
	_ = v1
}

func TestPeerValue(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		ok   bool
		want bool
	}{
		{"ok-positive", 12.5, true, true},
		{"ok-zero", 0, true, true},
		{"not-ok", 12.5, false, false},
		{"nan", math.NaN(), true, false},
		{"pos-inf", math.Inf(1), true, false},
		{"neg-inf", math.Inf(-1), true, false},
		{"negative", -0.5, true, false},
	}
	for _, tc := range cases {
		v, ok := PeerValue(tc.v, tc.ok)
		if ok != tc.want {
			t.Errorf("%s: PeerValue(%v, %v) ok = %v, want %v", tc.name, tc.v, tc.ok, ok, tc.want)
		}
		if ok && v != tc.v {
			t.Errorf("%s: PeerValue altered accepted value: %v -> %v", tc.name, tc.v, v)
		}
	}
}

// TestConnSpecForms pins the ConnSpec semantics the deleted PR-4
// migration wrappers delegated to: a rigid hinted connection and an
// adaptive-QoS range (their grace period is up; the deprecated
// analyzer keeps any resurrection from going unnoticed).
func TestConnSpecForms(t *testing.T) {
	e := seedEq5Engine()
	e.AddConnection(10, ConnSpec{Min: 3, Prev: 1, Hint: 2}, 100)
	if c := e.conns[e.index[10]]; c.min != 3 || c.max != 3 || c.prev != 1 || c.hint != 2 {
		t.Fatalf("hinted rigid ConnSpec: conn 10 = %+v, want rigid 3 from 1 hinted 2", c)
	}
	if grant := e.AddConnection(11, ConnSpec{Min: 2, Max: 6, Prev: topology.Self}, 100); grant != 6 {
		t.Fatalf("adaptive ConnSpec grant = %d, want 6", grant)
	}
	if c := e.conns[e.index[11]]; c.min != 2 || c.max != 6 || c.hint != NoHint {
		t.Fatalf("adaptive ConnSpec: conn 11 = %+v, want [2,6] unhinted", c)
	}
}
