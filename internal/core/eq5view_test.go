package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// TestPropertyIncrementalBr is the differential harness for the
// materialized Eq. 5 view: it drives random interleavings of
// AddConnection, RemoveConnection, hand-off departures, estimator
// Records, EvictBefore sweeps, and clock advances, and after *every*
// event queries a reservation and compares it against the retained
// from-scratch oracle (eq5Scratch) to the audit tolerance, then
// re-certifies the whole view via VerifyEq5Cache. Unlike
// TestPropertyEq5Incremental it holds the estimation window to a small
// set of values, so the view survives across events and the incremental
// advance/refresh/extend/remove delta paths — not the rebuild path —
// are what answer most queries. Run under -race via `make race`.
func TestPropertyIncrementalBr(t *testing.T) {
	cfgs := []struct {
		name string
		est  predict.Config
	}{
		{"stationary", predict.StationaryConfig()},
		{"windowed", predict.Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5}},
	}
	for _, tc := range cfgs {
		for seed := uint64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				runIncrementalBrOps(t, tc.est, seed)
			})
		}
	}
}

func runIncrementalBrOps(t *testing.T, estCfg predict.Config, seed uint64) {
	t.Helper()
	cfg := Config{
		Capacity: 200, Degree: 4, Admission: MustPolicy("AC1"),
		PHDTarget: 0.01, TStart: 1, Estimation: estCfg,
	}
	e := NewEngine(cfg)
	r := rand.New(rand.NewPCG(0x1BCB41EC, seed))
	now := 0.0
	var live []ConnID
	nextID := ConnID(1)

	randDir := func() topology.LocalIndex {
		return topology.LocalIndex(1 + r.IntN(cfg.Degree))
	}
	// A narrow window set keeps the view alive across events: the same
	// (test, estimator) key recurs, so timestamp changes advance the
	// view instead of rebuilding it.
	windows := []float64{5, 12.5}
	check := func(step int, what string) {
		t.Helper()
		toward := randDir()
		test := windows[r.IntN(len(windows))]
		got := e.OutgoingReservation(now, toward, test)
		want := e.eq5Scratch(now, toward, test)
		if math.Abs(got-want) > eq5PropTolerance {
			t.Fatalf("step %d after %s: OutgoingReservation(now=%v, toward=%d, test=%v) = %v, from-scratch = %v (diff %v)",
				step, what, now, toward, test, got, want, math.Abs(got-want))
		}
		if diff, checked := e.VerifyEq5Cache(); checked && diff > eq5PropTolerance {
			t.Fatalf("step %d after %s: VerifyEq5Cache reports divergence %v (tolerance %v)",
				step, what, diff, eq5PropTolerance)
		}
	}

	for step := 0; step < 500; step++ {
		what := "query"
		switch op := r.IntN(14); {
		case op < 3: // admit a new connection
			what = "add"
			min := 1 + r.IntN(5)
			if e.used+min > cfg.Capacity {
				break
			}
			spec := ConnSpec{Min: min, Prev: topology.Self}
			if r.IntN(3) == 0 {
				spec.Max = min + r.IntN(4)
			}
			if r.IntN(4) == 0 {
				spec.Hint = randDir()
			}
			e.AddConnection(nextID, spec, now)
			live = append(live, nextID)
			nextID++
		case op < 5: // connection ends
			what = "remove"
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			e.RemoveConnection(id)
		case op < 7: // hand-off out: departure recorded, then a fresh arrival
			what = "hand-off"
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: topology.Self, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
			e.RemoveConnection(id)
			min := 1 + r.IntN(5)
			if e.used+min <= cfg.Capacity {
				e.AddConnection(nextID, ConnSpec{Min: min, Prev: randDir()}, now)
				live = append(live, nextID)
				nextID++
			}
		case op < 9: // estimator learns a quadruplet
			what = "record"
			prev := topology.Self
			if r.IntN(2) == 0 {
				prev = randDir()
			}
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: prev, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
		case op == 9: // explicit estimator eviction
			what = "evict"
			e.est.EvictBefore(now - 20 - r.Float64()*100)
		case op == 10: // §3.1 deletion rule
			what = "sweep"
			e.SweepHistory(now)
		case op < 13: // clock advance — the view's hot path
			what = "advance"
			now += r.Float64() * 5
		default:
		}
		check(step, what)
	}
	// Final full fan-out at one key: every direction must agree.
	for toward := topology.LocalIndex(1); int(toward) <= cfg.Degree; toward++ {
		for _, test := range windows {
			got := e.OutgoingReservation(now, toward, test)
			want := e.eq5Scratch(now, toward, test)
			if math.Abs(got-want) > eq5PropTolerance {
				t.Fatalf("final: toward %d test %v: view %v vs from-scratch %v", toward, test, got, want)
			}
		}
	}
}

// TestEq5ViewEdgeCases pins the invalidation edge cases of the
// materialized view in table form: same-timestamp add/remove pairs
// (including the swap-remove of a middle slot), a Record landing
// between two queries at one timestamp, and evict-triggered generation
// bumps — with and without samples actually dropping.
func TestEq5ViewEdgeCases(t *testing.T) {
	type viewState struct {
		rebuilds uint64
		live     bool // VerifyEq5Cache checked
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine) viewState
	}{
		{
			// Add then remove the same connection at one timestamp: the
			// view extends, then swap-shrinks, and keeps answering
			// without a rebuild.
			name: "same-timestamp add/remove pair",
			run: func(t *testing.T, e *Engine) viewState {
				e.OutgoingReservation(100, 1, 30)
				e.AddConnection(50, ConnSpec{Min: 3, Prev: 1}, 100)
				e.RemoveConnection(50)
				r := e.Ledger().Eq5Rebuilds
				return viewState{rebuilds: r, live: true}
			},
		},
		{
			// Remove a *middle* slot at the cache timestamp: the last
			// connection swaps into its place and every per-connection
			// column must move with it.
			name: "same-timestamp middle swap-remove",
			run: func(t *testing.T, e *Engine) viewState {
				e.OutgoingReservation(100, 1, 30)
				e.AddConnection(50, ConnSpec{Min: 3, Prev: 1}, 100)
				e.AddConnection(51, ConnSpec{Min: 7, Prev: 2, Hint: 1}, 100)
				e.RemoveConnection(1) // seeded conn at slot 0: 51 swaps in
				r := e.Ledger().Eq5Rebuilds
				return viewState{rebuilds: r, live: true}
			},
		},
		{
			// A Record between two queries at equal now: the second
			// query must see the new selection (full rebuild), not the
			// memoized sum.
			name: "record between equal-now queries",
			run: func(t *testing.T, e *Engine) viewState {
				e.OutgoingReservation(100, 1, 30)
				e.RecordDeparture(predict.Quadruplet{Event: 100, Prev: topology.Self, Next: 1, Sojourn: 12})
				r0 := e.Ledger().Eq5Rebuilds
				e.OutgoingReservation(100, 1, 30)
				r1 := e.Ledger().Eq5Rebuilds
				if r1 != r0+1 {
					t.Fatalf("equal-now query after Record did not rebuild (rebuilds %d -> %d)", r0, r1)
				}
				return viewState{rebuilds: r1, live: true}
			},
		},
		{
			// EvictBefore that drops samples bumps the generation: the
			// next query rebuilds against the shrunken selection.
			name: "evict drops samples",
			run: func(t *testing.T, e *Engine) viewState {
				e.OutgoingReservation(100, 1, 30)
				est := e.est
				gen := est.Generation()
				est.EvictBefore(1.5) // drops the Event=0 and Event=1 quadruplets
				if est.Generation() == gen {
					t.Fatal("EvictBefore dropped samples without bumping the generation")
				}
				r0 := e.Ledger().Eq5Rebuilds
				e.OutgoingReservation(100, 1, 30)
				r1 := e.Ledger().Eq5Rebuilds
				if r1 != r0+1 {
					t.Fatalf("query after dropping evict did not rebuild (rebuilds %d -> %d)", r0, r1)
				}
				return viewState{rebuilds: r1, live: true}
			},
		},
		{
			// EvictBefore that drops nothing leaves the generation — and
			// the live view — alone: the next query is a plain hit.
			name: "evict drops nothing",
			run: func(t *testing.T, e *Engine) viewState {
				e.OutgoingReservation(100, 1, 30)
				est := e.est
				gen := est.Generation()
				est.EvictBefore(-1)
				if est.Generation() != gen {
					t.Fatal("no-op EvictBefore bumped the generation")
				}
				h0, _ := e.Eq5CacheStats()
				e.OutgoingReservation(100, 1, 30)
				if h1, _ := e.Eq5CacheStats(); h1 != h0+1 {
					t.Fatalf("query after no-op evict was not a hit (hits %d -> %d)", h0, h1)
				}
				r := e.Ledger().Eq5Rebuilds
				return viewState{rebuilds: r, live: true}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := seedEq5Engine()
			st := tc.run(t, e)
			// Whatever the path, the surviving state must re-derive
			// cleanly and the next answers must match the oracle.
			if diff, checked := e.VerifyEq5Cache(); checked != st.live || diff > eq5PropTolerance {
				t.Fatalf("VerifyEq5Cache = (%v, %v), want live=%v within tolerance", diff, checked, st.live)
			}
			for _, toward := range []topology.LocalIndex{1, 2} {
				got := e.OutgoingReservation(100, toward, 30)
				want := e.eq5Scratch(100, toward, 30)
				if got != want {
					t.Fatalf("toward %d: view %v != from-scratch %v", toward, got, want)
				}
			}
		})
	}
}

// TestEq5AdvanceDuringExtend pins the lazy extend: AddConnection at a
// later timestamp computes the new row at the view's own timestamp and
// leaves the advance to the next query, whose guard scan covers the new
// row like any other and refreshes exactly the connections whose guards
// expired in between.
func TestEq5AdvanceDuringExtend(t *testing.T) {
	e := seedEq5Engine()
	// t0 = 100: a live view over connections 1 (entered 90 from Self,
	// ext 10) and 2 (entered 95 from 1, ext 5).
	e.OutgoingReservation(100, 1, 30)
	before := e.Ledger()
	e.AddConnection(3, ConnSpec{Min: 5, Prev: 2}, 110)
	after := e.Ledger()
	if d := [3]uint64{after.Eq5Rebuilds - before.Eq5Rebuilds, after.Eq5Advances - before.Eq5Advances,
		after.Eq5Refreshes - before.Eq5Refreshes}; d != [3]uint64{} {
		t.Fatalf("AddConnection made %d rebuilds, %d advances, %d refreshes; want none", d[0], d[1], d[2])
	}
	// t1 = 110: connection 1's ext reaches 20, the smallest selected
	// Self-sojourn, so its guard expires; connection 2 (next sojourn at
	// ext 30) and connection 3 (prev 2, no history) hold.
	got := e.OutgoingReservation(110, 1, 30)
	done := e.Ledger()
	if d := done.Eq5Advances - after.Eq5Advances; d != 1 {
		t.Fatalf("query after the add advanced the view %d times, want 1", d)
	}
	if d := done.Eq5Refreshes - after.Eq5Refreshes; d != 1 {
		t.Fatalf("query after the add refreshed %d connections, want 1", d)
	}
	want := e.eq5Scratch(110, 1, 30)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("view %v != from-scratch %v", got, want)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestEq5GuardIgnoresUnqueriedPairs: a connection's upper-edge guard
// comes only from the pairs that feed a materialized term, so a window
// edge crossing a sojourn of a pair no queried direction reads refreshes
// nothing — and the answer stays bit-exact.
func TestEq5GuardIgnoresUnqueriedPairs(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 100})
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: topology.Self, Next: 2, Sojourn: 50})
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 90)
	// At 100: ext 10, ext+test 40; the next group sojourn above ext is
	// 50, pair (Self, 1)'s next above ext+test is 100.
	e.OutgoingReservation(100, 1, 30)
	before := e.Ledger()
	// At 115: ext 25 stays below 50, ext+test 55 crosses pair
	// (Self, 2)'s 50 only.
	got := e.OutgoingReservation(115, 1, 30)
	after := e.Ledger()
	if after.Eq5Advances != before.Eq5Advances+1 || after.Eq5Refreshes != before.Eq5Refreshes {
		t.Fatalf("advances %d -> %d, refreshes %d -> %d; want one advance and no refresh",
			before.Eq5Advances, after.Eq5Advances, before.Eq5Refreshes, after.Eq5Refreshes)
	}
	want := e.eq5Scratch(115, 1, 30)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("view %v != from-scratch %v", got, want)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// TestEq5ViewAdvanceAllocationFree pins the steady-state cost model:
// once the view is warm, advancing the clock, churning one connection
// (a swap-removal and an extend of the term block) and re-querying
// allocates nothing, even when guard expiries force per-connection
// refreshes.
func TestEq5ViewAdvanceAllocationFree(t *testing.T) {
	e := seedEq5Engine()
	for i := 0; i < 30; i++ {
		e.RecordDeparture(predict.Quadruplet{
			Event: float64(3 + i), Prev: topology.LocalIndex(i % 3),
			Next: topology.LocalIndex(1 + i%2), Sojourn: float64(5 + (i*7)%40),
		})
	}
	now := 100.0
	e.OutgoingReservation(now, 1, 30) // warm the view
	e.OutgoingReservation(now, 2, 30)
	// Churn the first slot, so each removal swaps the last connection's
	// row into the hole before the add appends one at the end. One add
	// ahead of the loop gives the table and the term block room for it.
	e.AddConnection(3, ConnSpec{Min: 1, Prev: 1}, now)
	e.RemoveConnection(3)
	id := ConnID(100)
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.25
		e.RemoveConnection(e.conns[0].id)
		id++
		e.AddConnection(id, ConnSpec{Min: 4, Prev: topology.Self}, now)
		e.OutgoingReservation(now, 1, 30)
		e.OutgoingReservation(now, 2, 30)
	})
	if allocs != 0 {
		t.Fatalf("steady-state advance allocated %v times per run, want 0", allocs)
	}
	if led := e.Ledger(); led.Eq5Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1 (churn must extend and remove, not rebuild)", led.Eq5Rebuilds)
	}
	if diff, checked := e.VerifyEq5Cache(); !checked || diff != 0 {
		t.Fatalf("VerifyEq5Cache = (%v, %v), want (0, true)", diff, checked)
	}
}

// ageOrderIDs lists the connection IDs in the age order the Eq. 5
// sweeps walk, youngest first.
func ageOrderIDs(e *Engine) []ConnID {
	var ids []ConnID
	for i := e.youngest; i >= 0 && len(ids) <= len(e.conns); i = e.conns[i].older {
		ids = append(ids, e.conns[i].id)
	}
	return ids
}

// TestAgeOrder walks the age order's upkeep through its cases: adds
// earlier than the youngest row, earlier than every row and tied with
// the youngest; removals of the head and of the tail, each refilled by
// the swap from the table's last slot, of a row whose swap partner is
// its list neighbour, and of the only row. After each the order lists
// the rows youngest first, and the view's answers are bit-exact.
func TestAgeOrder(t *testing.T) {
	e := seedEq5Engine() // 1 entered at 90, 2 at 95
	step := func(what string, want ...ConnID) {
		t.Helper()
		if got := ageOrderIDs(e); !e.ageOrderSound() || !slices.Equal(got, want) {
			t.Fatalf("after %s: age order %v (sound %v), want %v", what, got, e.ageOrderSound(), want)
		}
		for toward := topology.LocalIndex(1); toward <= 2; toward++ {
			got := e.OutgoingReservation(130, toward, 30)
			if want := e.eq5Scratch(130, toward, 30); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %s: view %v != from-scratch %v toward %d", what, got, want, toward)
			}
		}
		if diff, checked := e.VerifyEq5Cache(); checked && diff != 0 {
			t.Fatalf("after %s: VerifyEq5Cache divergence %v", what, diff)
		}
	}
	step("seeding", 2, 1)
	e.AddConnection(3, ConnSpec{Min: 1, Prev: 2}, 93)
	step("an add earlier than the youngest", 2, 3, 1)
	e.AddConnection(4, ConnSpec{Min: 3, Prev: 1, Hint: 2}, 80)
	step("an add earlier than every row", 2, 3, 1, 4)
	e.AddConnection(5, ConnSpec{Min: 2, Prev: topology.Self}, 95)
	step("an add tied with the youngest", 5, 2, 3, 1, 4)
	e.RemoveConnection(2) // slots: 1, 2, 3, 4, 5; the last (5) moves into 2's
	e.RemoveConnection(5) // the head, refilled by the last slot (4, the tail)
	step("removing the head", 3, 1, 4)
	e.RemoveConnection(4) // the tail, refilled by the last slot (3, the head)
	step("removing the tail", 3, 1)
	e.RemoveConnection(1) // its swap partner, 3, is its younger neighbour
	step("removing a row next to its swap partner", 3)
	e.RemoveConnection(3)
	if e.youngest != -1 {
		t.Fatalf("empty table: youngest = %d, want -1", e.youngest)
	}
	step("removing the only row")
	e.AddConnection(6, ConnSpec{Min: 1, Prev: 1}, 120)
	step("an add to the empty table", 6)
}

// TestPropertyAgeOrder drives random adds, at times on both sides of
// the youngest row's, and random removals, and holds the age order to
// the table after every step: every row once, youngest first.
func TestPropertyAgeOrder(t *testing.T) {
	r := rand.New(rand.NewPCG(0xA6E, 39))
	e := seedEq5Engine()
	var live []ConnID
	for step, id := 0, ConnID(10); step < 2000; step++ {
		if len(live) == 0 || len(live) < 40 && r.IntN(2) == 0 {
			e.AddConnection(id, ConnSpec{Min: 1, Prev: topology.LocalIndex(r.IntN(3))}, float64(r.IntN(40)))
			live = append(live, id)
			id++
		} else {
			k := r.IntN(len(live))
			e.RemoveConnection(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if !e.ageOrderSound() || len(ageOrderIDs(e)) != len(e.conns) {
			t.Fatalf("step %d: age order %v does not thread the %d rows youngest first", step, ageOrderIDs(e), len(e.conns))
		}
	}
}
