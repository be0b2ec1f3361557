package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// eq5PropTolerance is the divergence the property tests allow between
// the view and the from-scratch walk: none. The view is bit-exact by
// construction and the golden corpus demands it; audit.Eq5Tolerance,
// the runtime bound, is zero too.
const eq5PropTolerance = 0

// TestPropertyEq5Incremental drives an engine through long random
// interleavings of connection adds and removals, hand-off departures
// feeding the estimator, history sweeps, and clock advances, and after
// every reservation query compares the incrementally maintained Eq. 5
// answer with the retained from-scratch walk (eq5Scratch). Every step
// also re-certifies all live cached sums via VerifyEq5Cache. Run under
// -race via `make race`.
func TestPropertyEq5Incremental(t *testing.T) {
	cfgs := []struct {
		name string
		est  predict.Config
	}{
		// Infinite window: the selection changes only on Record.
		{"stationary", predict.StationaryConfig()},
		// Finite window with a small rebuild budget: exercises lazy
		// drift rebuilds and eviction bumping the generation mid-run.
		{"windowed", predict.Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5}},
	}
	for _, tc := range cfgs {
		for seed := uint64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel()
				runEq5Ops(t, tc.est, seed)
			})
		}
	}
}

func runEq5Ops(t *testing.T, estCfg predict.Config, seed uint64) {
	t.Helper()
	cfg := Config{
		Capacity: 200, Degree: 4, Admission: MustPolicy("AC1"),
		PHDTarget: 0.01, TStart: 1, Estimation: estCfg,
	}
	e := NewEngine(cfg)
	r := rand.New(rand.NewPCG(0xE55CACE, seed))
	now := 0.0
	var live []ConnID
	nextID := ConnID(1)

	randDir := func() topology.LocalIndex {
		return topology.LocalIndex(1 + r.IntN(cfg.Degree))
	}
	query := func(step int) {
		toward := randDir()
		test := 1 + r.Float64()*9
		got := e.OutgoingReservation(now, toward, test)
		want := e.eq5Scratch(now, toward, test)
		if math.Abs(got-want) > eq5PropTolerance {
			t.Fatalf("step %d: OutgoingReservation(now=%v, toward=%d, test=%v) = %v, from-scratch = %v (diff %v)",
				step, now, toward, test, got, want, math.Abs(got-want))
		}
	}

	for step := 0; step < 400; step++ {
		switch op := r.IntN(12); {
		case op < 3: // admit or hand a connection in
			min := 1 + r.IntN(5)
			if e.used+min > cfg.Capacity {
				break
			}
			spec := ConnSpec{Min: min, Prev: topology.Self}
			if r.IntN(2) == 0 {
				spec.Prev = randDir() // hand-off arrival
			}
			if r.IntN(3) == 0 {
				spec.Max = min + r.IntN(4) // adaptive QoS
			}
			if r.IntN(4) == 0 {
				spec.Hint = randDir() // §7 route guidance
			}
			e.AddConnection(nextID, spec, now)
			live = append(live, nextID)
			nextID++
		case op < 5: // connection leaves (drop or hand-off departure)
			if len(live) == 0 {
				break
			}
			i := r.IntN(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if r.IntN(2) == 0 {
				e.RecordDeparture(predict.Quadruplet{
					Event: now, Prev: topology.Self, Next: randDir(),
					Sojourn: r.Float64() * 50,
				})
			}
			e.RemoveConnection(id)
		case op < 7: // estimator learns a quadruplet
			prev := topology.Self
			if r.IntN(2) == 0 {
				prev = randDir()
			}
			e.RecordDeparture(predict.Quadruplet{
				Event: now, Prev: prev, Next: randDir(),
				Sojourn: r.Float64() * 50,
			})
		case op == 7: // §3.1 deletion rule
			e.SweepHistory(now)
		case op == 8: // clock advance
			now += r.Float64() * 5
		default:
			query(step)
		}
		if diff, checked := e.VerifyEq5Cache(); checked && diff > eq5PropTolerance {
			t.Fatalf("step %d: VerifyEq5Cache reports divergence %v (tolerance %v)",
				step, diff, eq5PropTolerance)
		}
	}
	// Final full fan-out at one key: every direction must agree.
	for toward := topology.LocalIndex(1); int(toward) <= cfg.Degree; toward++ {
		test := 1 + r.Float64()*9
		got := e.OutgoingReservation(now, toward, test)
		want := e.eq5Scratch(now, toward, test)
		if math.Abs(got-want) > eq5PropTolerance {
			t.Fatalf("final: toward %d: cached %v vs from-scratch %v", toward, got, want)
		}
	}
}
