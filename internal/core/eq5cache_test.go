package core

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// VerifyEq5Cache is VerifyEq5CacheAt at the view's own timestamp.
func (e *Engine) VerifyEq5Cache() (maxDiff float64, checked bool) {
	if e.est == nil {
		return 0, false
	}
	e.lock()
	defer e.unlock()
	return e.verifyEq5Locked()
}

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

// TestOutgoingReservationDirectionRange holds OutgoingReservation to
// its contract: a direction outside 1..Degree is a caller's error, and
// the panic names the range.
func TestOutgoingReservationDirectionRange(t *testing.T) {
	e := seedEq5Engine()
	for _, toward := range []topology.LocalIndex{topology.Self, 3} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "[1,2]") {
					t.Errorf("OutgoingReservation toward %d: panic %q, want one naming [1,2]", toward, msg)
				}
			}()
			e.OutgoingReservation(100, toward, 30)
		}()
	}
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
	want := e.eq5Scratch(now, 2, 30)
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
	want := e.eq5Scratch(100, 1, 30)
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

// TestEq5CacheInvalidatesOnNewHistory: every Record moves the estimator
// generation, and the view never adopts one — the next query rebuilds,
// bit-exact by construction. That holds for a record that changes a live
// connection's terms and equally for the two that change none: an
// equal-sojourn replacement in a full pair, and a record whose prev no
// live connection entered from.
func TestEq5CacheInvalidatesOnNewHistory(t *testing.T) {
	e := seedEq5Engine()
	for i := 1; i < predict.StationaryConfig().NQuad; i++ {
		e.RecordDeparture(predict.Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 30}) // fill pair (1,2)
	}
	e.OutgoingReservation(100, 1, 30)
	for i, q := range []predict.Quadruplet{
		{Event: 99, Prev: topology.Self, Next: 2, Sojourn: 10}, // live prev: terms change
		{Event: 99, Prev: 1, Next: 2, Sojourn: 30},             // evicts a 30 for a 30
		{Event: 99, Prev: 2, Next: 1, Sojourn: 10},             // no live connection from 2
	} {
		rebuilds := e.Ledger().Eq5Rebuilds
		e.RecordDeparture(q)
		got := e.OutgoingReservation(100, 1, 30)
		want := e.eq5Scratch(100, 1, 30)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %+v: query %v != from-scratch %v", q, got, want)
		}
		if h, m := e.Eq5CacheStats(); h != 0 || m != uint64(i+2) {
			t.Fatalf("after %+v: hits=%d misses=%d, want 0/%d (generation change must miss)", q, h, m, i+2)
		}
		if led := e.Ledger(); led.Eq5Rebuilds != rebuilds+1 || led.Eq5Adoptions != 0 {
			t.Fatalf("after %+v: rebuilds %d -> %d, adoptions %d; want one rebuild and no adoption",
				q, rebuilds, led.Eq5Rebuilds, led.Eq5Adoptions)
		}
	}
}

// adoptConfig uses a tiny N_quad so a (prev, next) pair fills in two
// records and equal-sojourn replacements become selection-invisible.
func adoptConfig() Config {
	return Config{
		Capacity: 100, Degree: 2, Admission: MustPolicy("AC1"),
		PHDTarget: 0.01, TStart: 1,
		Estimation: predict.Config{Tint: math.Inf(1), NQuad: 2},
	}
}

// wantRebuiltUnchanged checks the query after a Record that changes no
// term the view serves: the view did not adopt the new generation, so
// the query missed and rebuilt, and the rebuild answers what the view
// answered before.
func wantRebuiltUnchanged(t *testing.T, e *Engine, before float64) {
	t.Helper()
	if got := e.OutgoingReservation(100, 1, 30); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("reservation moved after a record that changes no live term: %v -> %v", before, got)
	}
	if h, m := e.Eq5CacheStats(); h != 0 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2 (every Record makes the next query miss)", h, m)
	}
	if led := e.Ledger(); led.Eq5Rebuilds != 2 || led.Eq5Adoptions != 0 {
		t.Fatalf("rebuilds=%d adoptions=%d, want 2/0", led.Eq5Rebuilds, led.Eq5Adoptions)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestEq5AdoptsInvisibleRecord: a selection-invisible departure record
// (an equal-sojourn replacement in a full pair) is not adopted — the view
// rebuilds, and the rebuild answers exactly what it answered before.
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
	wantRebuiltUnchanged(t, e, before)
}

// TestEq5AdoptsVisibleRecordOffLivePrev: a visible record on a prev
// direction no live connection uses changes no term the view serves; it
// is not adopted either, and the rebuild answers as before.
func TestEq5AdoptsVisibleRecordOffLivePrev(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 200})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)

	before := e.OutgoingReservation(100, 1, 30)
	// Visible record (new sojourn value) — but on prev 1, and the only
	// live connection entered from Self.
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 55})
	wantRebuiltUnchanged(t, e, before)
}

// TestEq5RefusesVisibleRecordOnLivePrev: a visible record on a prev a
// live connection entered from changes the view's terms, and a later
// invisible record must not bring the stale view back: both leave
// adoptions at 0, and the next query rebuilds against the real history.
func TestEq5RefusesVisibleRecordOnLivePrev(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: 1}, 90)

	e.OutgoingReservation(100, 1, 30)
	// Visible (evicts a 30 for a 70) on prev 1 = the live connection's
	// entry direction.
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 70})
	if got := e.Ledger().Eq5Adoptions; got != 0 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 0", got)
	}
	// Pair is now [30, 70]; recording a 30 is invisible in isolation,
	// but the view already missed a generation.
	e.RecordDeparture(predict.Quadruplet{Event: 102, Prev: 1, Next: 2, Sojourn: 30})
	if got := e.Ledger().Eq5Adoptions; got != 0 {
		t.Fatalf("Ledger().Eq5Adoptions = %d, want 0", got)
	}
	got := e.OutgoingReservation(100, 1, 30)
	want := e.eq5Scratch(100, 1, 30)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("query %v != from-scratch %v", got, want)
	}
	if h, m := e.Eq5CacheStats(); h != 0 || m != 2 {
		t.Fatalf("stale view served a hit: hits=%d misses=%d, want 0/2", h, m)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestLedgerReportsAdoptions: the ledger still carries Eq5Adoptions (the
// benchmark reports it), and it reads 0 after the record adoption once
// absorbed, with the rebuild it no longer spares counted next to it.
func TestLedgerReportsAdoptions(t *testing.T) {
	e := NewEngine(adoptConfig())
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 30})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)
	e.OutgoingReservation(100, 1, 30)
	e.RecordDeparture(predict.Quadruplet{Event: 101, Prev: 1, Next: 2, Sojourn: 30})
	e.OutgoingReservation(100, 1, 30)
	if led := e.Ledger(); led.Eq5Adoptions != 0 || led.Eq5Rebuilds != 2 {
		t.Fatalf("Ledger(): adoptions=%d rebuilds=%d, want 0/2", led.Eq5Adoptions, led.Eq5Rebuilds)
	}
}

// TestEq5RebuildGrowthAmortized fills a cold cell the way a metro cell
// fills: a Record lands before every add, so the view is invalid at the
// add and every query rebuilds over a table one connection larger than
// the last. The rebuilds must grow the view's storage by
// amortized steps, not reallocate it at each new largest table.
func TestEq5RebuildGrowthAmortized(t *testing.T) {
	const conns = 64
	e := NewEngine(adaptiveConfig("AC1"))
	// Fill pair (Self, 1) and seed (1, 2) first: a Record into a full
	// pair replaces in place and allocates nothing.
	for i := 0; i < predict.StationaryConfig().NQuad; i++ {
		e.RecordDeparture(predict.Quadruplet{Event: float64(i), Prev: topology.Self, Next: 1, Sojourn: float64(5 + i%40)})
	}
	e.RecordDeparture(predict.Quadruplet{Event: 999, Prev: 1, Next: 2, Sojourn: 30})
	got := make([]float64, conns)
	want := make([]float64, conns)
	now := 1000.0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range conns {
		e.RecordDeparture(predict.Quadruplet{Event: now, Prev: topology.Self, Next: 1, Sojourn: float64(10 + i%30)})
		e.AddConnection(ConnID(i+1), ConnSpec{Min: 1, Prev: topology.LocalIndex(i % 2)}, now)
		got[i] = e.OutgoingReservation(now, 1, 30)
		want[i] = e.eq5Scratch(now, 1, 30)
		now += 0.5
	}
	runtime.ReadMemStats(&after)
	for i := range conns {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("add %d: view %v != from-scratch %v", i+1, got[i], want[i])
		}
	}
	if r := e.Ledger().Eq5Rebuilds; r != conns {
		t.Fatalf("rebuilds = %d, want %d (one per query)", r, conns)
	}
	if n := after.Mallocs - before.Mallocs; n >= conns {
		t.Fatalf("filling %d connections made %d allocations, want fewer than one per add", conns, n)
	}
}

// TestConnSize pins the connection record, which carries the Eq. 5
// view's per-connection state: 56 bytes of connection, the 8-byte age
// links and the 24-byte eq5Slot (the denominator and the two guards).
// A new field shows its cost here before it shows in the growth of
// every engine's table.
func TestConnSize(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 88 {
		t.Fatalf("conn is %d bytes, want ≤ 88", got)
	}
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
	if c := e.conns[e.index[11]]; c.min != 2 || c.max != 6 || c.nextCell() != NoHint {
		t.Fatalf("adaptive ConnSpec: conn 11 = %+v, want [2,6] unhinted", c)
	}
}
