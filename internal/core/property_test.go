package core_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"cellqos/internal/audit"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// zeroPeers is the quietest possible neighborhood: no outgoing hand-off
// traffic, idle neighbors. It lets AdmitNew run the full Eq. 4–6
// machinery without scripting neighbor behavior.
type zeroPeers struct{}

func (zeroPeers) OutgoingReservation(topology.LocalIndex, float64, float64) (float64, bool) {
	return 0, true
}
func (zeroPeers) Snapshot(topology.LocalIndex) (int, int, float64, bool) { return 0, 100, 0, true }
func (zeroPeers) RecomputeReservation(topology.LocalIndex, float64) (int, int, float64, bool) {
	return 0, 100, 0, true
}
func (zeroPeers) MaxSojourn(topology.LocalIndex, float64) (float64, bool) { return 0, true }

// TestPropertyEngineRandomOps drives an Engine through long random
// operation sequences while a shadow model tracks what the bandwidth
// accounting must look like. After every operation the audit checker
// verifies the paper's conservation invariants on a fresh Ledger, and
// the model cross-checks connection counts, QoS ranges, and the pledge
// pool. Run under -race via `make race`.
func TestPropertyEngineRandomOps(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  core.Config
	}{
		{"none-with-margin", core.Config{Capacity: 60, Degree: 3, Admission: core.MustPolicy("none"), HandOffMargin: 6}},
		{"ac1-adaptive", core.Config{
			Capacity: 60, Degree: 3, Admission: core.MustPolicy("AC1"),
			PHDTarget: 0.01, TStart: 1, Estimation: predict.StationaryConfig(),
		}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			runEngineOps(t, tc.cfg, rand.New(rand.NewPCG(42, uint64(len(tc.name)))))
		})
	}
}

func runEngineOps(t *testing.T, cfg core.Config, r *rand.Rand) {
	t.Helper()
	e := core.NewEngine(cfg)
	ck := &audit.Checker{}
	type rng struct{ min, max int }
	model := map[core.ConnID]rng{}
	pledged := 0
	nextID := core.ConnID(1)
	now := 0.0

	check := func(op string) {
		t.Helper()
		l := e.Ledger()
		ck.Engine("property", now, l) // panics with a Violation on any breach
		if l.Connections != len(model) {
			t.Fatalf("after %s: ledger has %d connections, model has %d", op, l.Connections, len(model))
		}
		if l.Pledged != pledged {
			t.Fatalf("after %s: ledger pledged %d, model %d", op, l.Pledged, pledged)
		}
		summin, summax := 0, 0
		for _, m := range model {
			summin += m.min
			summax += m.max
		}
		if l.SumMin != summin {
			t.Fatalf("after %s: ledger Σmin %d, model %d", op, l.SumMin, summin)
		}
		if l.Used < summin || l.Used > summax {
			t.Fatalf("after %s: used %d outside model range [%d,%d]", op, l.Used, summin, summax)
		}
	}
	room := func() int {
		l := e.Ledger()
		return cfg.Capacity + cfg.HandOffMargin - l.Used - l.Pledged
	}
	anyConn := func() (core.ConnID, rng, bool) {
		for id, m := range model {
			return id, m, true
		}
		return 0, rng{}, false
	}

	check("init")
	for op := 0; op < 3000; op++ {
		now += r.Float64() * 5
		label := ""
		switch k := r.IntN(10); k {
		case 0, 1: // rigid add, gated by the hand-off admission test
			bw := 1 + r.IntN(8)
			if e.AdmitHandOff(bw) {
				e.AddConnection(nextID, core.ConnSpec{Min: bw, Prev: topology.LocalIndex(1 + r.IntN(cfg.Degree))}, now)
				model[nextID] = rng{bw, bw}
				nextID++
			}
			label = fmt.Sprintf("op %d add-rigid", op)
		case 2: // rigid add gated by AdmitNew (full Eq. 4–6 path when adaptive)
			bw := 1 + r.IntN(8)
			if dec := e.AdmitNew(now, bw, zeroPeers{}); dec.Admitted {
				e.AddConnection(nextID, core.ConnSpec{Min: bw, Prev: topology.Self}, now)
				model[nextID] = rng{bw, bw}
				nextID++
			}
			label = fmt.Sprintf("op %d admit-new", op)
		case 3: // elastic add
			min := 1 + r.IntN(4)
			max := min + r.IntN(7)
			if got := room(); got >= min {
				grant := e.AddConnection(nextID, core.ConnSpec{Min: min, Max: max, Prev: topology.Self}, now)
				if grant < min || grant > max || grant > got {
					t.Fatalf("op %d: elastic grant %d outside [%d,%d] with room %d", op, grant, min, max, got)
				}
				model[nextID] = rng{min, max}
				nextID++
			}
			label = fmt.Sprintf("op %d add-elastic", op)
		case 4, 5: // remove a live connection
			if id, m, ok := anyConn(); ok {
				bw, _, _, found := e.Connection(id)
				if !found || bw < m.min || bw > m.max {
					t.Fatalf("op %d: conn %d reports bw %d found=%v, model range [%d,%d]", op, id, bw, found, m.min, m.max)
				}
				e.RemoveConnection(id)
				if _, _, _, still := e.Connection(id); still {
					t.Fatalf("op %d: conn %d survives removal", op, id)
				}
				delete(model, id)
			}
			label = fmt.Sprintf("op %d remove", op)
		case 6: // pledge (MobSpec pool); must fail exactly when over capacity
			bw := 1 + r.IntN(10)
			l := e.Ledger()
			want := l.Used+l.Pledged+bw <= cfg.Capacity
			if got := e.Pledge(bw); got != want {
				t.Fatalf("op %d: Pledge(%d) = %v with used %d pledged %d cap %d", op, bw, got, l.Used, l.Pledged, cfg.Capacity)
			} else if got {
				pledged += bw
			}
			label = fmt.Sprintf("op %d pledge", op)
		case 7: // unpledge part of the pool
			if pledged > 0 {
				amt := 1 + r.IntN(pledged)
				e.Unpledge(amt)
				pledged -= amt
			}
			label = fmt.Sprintf("op %d unpledge", op)
		case 8: // downgrade elastic connections to absorb a hand-off
			need := 1 + r.IntN(6)
			before := e.Ledger()
			ok := e.DowngradeToFit(need)
			after := e.Ledger()
			limit := cfg.Capacity + cfg.HandOffMargin
			if ok && after.Used+after.Pledged+need > limit {
				t.Fatalf("op %d: DowngradeToFit(%d) claimed success but room is %d", op, need, limit-after.Used-after.Pledged)
			}
			if !ok {
				if reclaimable := before.SumBw - before.SumMin; before.Used+before.Pledged+need-limit <= reclaimable {
					t.Fatalf("op %d: DowngradeToFit(%d) refused with %d BU reclaimable", op, need, reclaimable)
				}
				if after.Used != before.Used {
					t.Fatalf("op %d: failed downgrade changed used %d -> %d", op, before.Used, after.Used)
				}
			}
			label = fmt.Sprintf("op %d downgrade", op)
		case 9: // restore degraded QoS from free bandwidth
			before := e.Ledger()
			restored := e.RedistributeFree()
			after := e.Ledger()
			if restored < 0 || after.Used != before.Used+restored {
				t.Fatalf("op %d: RedistributeFree returned %d, used %d -> %d", op, restored, before.Used, after.Used)
			}
			label = fmt.Sprintf("op %d redistribute", op)
		}
		check(label)
		// Feed the estimator occasionally so the adaptive config's
		// Eq. 5–6 path sees real history.
		if e.Traits().Adaptive && op%17 == 0 {
			e.RecordDeparture(predict.Quadruplet{
				Event:   now,
				Prev:    topology.LocalIndex(r.IntN(cfg.Degree + 1)),
				Next:    topology.LocalIndex(1 + r.IntN(cfg.Degree)),
				Sojourn: r.Float64() * 40,
			})
		}
	}
	// Drain: remove everything and verify the ledger returns to zero.
	for id := range model {
		e.RemoveConnection(id)
		delete(model, id)
	}
	if pledged > 0 {
		e.Unpledge(pledged)
		pledged = 0
	}
	check("drain")
	if l := e.Ledger(); l.Used != 0 || l.Pledged != 0 || l.Connections != 0 {
		t.Fatalf("after drain: used %d pledged %d conns %d, want all zero", l.Used, l.Pledged, l.Connections)
	}
}
