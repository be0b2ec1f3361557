package core

import (
	"testing"

	"cellqos/internal/topology"
)

// gatheringPeers is a Peers with the optional Prefetcher capability: it
// records each gather and hands back a plain view that has none.
type gatheringPeers struct {
	*fakePeers
	gathers []float64 // the window each Prefetch was asked for
	nows    []float64
}

func (g *gatheringPeers) Prefetch(now, test float64) Peers {
	g.nows = append(g.nows, now)
	g.gathers = append(g.gathers, test)
	return g.fakePeers
}

// TestPrefetcherDiscovery pins where the engine looks for the optional
// capability: once per admission under a policy that consults
// neighbours (before the policy runs, so the view it returns is what
// the policy and the Eq. 6 inside it see, without a second gather),
// once per bare ComputeTargetReservation, at the window Eq. 6 will use —
// and never for a policy that asks its neighbours nothing.
func TestPrefetcherDiscovery(t *testing.T) {
	mk := func() *gatheringPeers {
		return &gatheringPeers{fakePeers: &fakePeers{
			outgoing: map[topology.LocalIndex]float64{1: 2, 2: 3},
			used:     map[topology.LocalIndex]int{1: 10, 2: 10},
			capacity: map[topology.LocalIndex]int{1: 100, 2: 100},
			lastBr:   map[topology.LocalIndex]float64{},
			freshBr:  map[topology.LocalIndex]float64{},
		}}
	}
	for _, policy := range []string{"AC1", "AC2", "AC3", "multi-class", "exp-dwell"} {
		cfg := adaptiveConfig(policy)
		cfg.ExpDwellMean, cfg.ExpDwellWindow = 60, 7
		e := NewEngine(cfg)
		wantTest := 1.0 // TStart
		if policy == "exp-dwell" {
			wantTest = 7
		}
		g := mk()
		d := e.AdmitNew(5, 1, g)
		if len(g.gathers) != 1 || g.gathers[0] != wantTest || g.nows[0] != 5 {
			t.Errorf("%s: AdmitNew gathered at windows %v times %v, want once at (5, %v)", policy, g.gathers, g.nows, wantTest)
		}
		if !d.Admitted || e.LastTargetReservation() != 5 || g.outgoingCalls != 2 {
			t.Errorf("%s: decision %+v, B_r %v from %d Eq. 5 answers, want admitted on B_r 5 from 2", policy, d, e.LastTargetReservation(), g.outgoingCalls)
		}
		g = mk()
		if br := e.ComputeTargetReservation(6, g); br != 5 || len(g.gathers) != 1 || g.gathers[0] != wantTest || g.nows[0] != 6 {
			t.Errorf("%s: ComputeTargetReservation = %v after gathers %v at %v, want 5 after one at (6, %v)", policy, br, g.gathers, g.nows, wantTest)
		}
	}
	for _, policy := range []string{"static", "none", "guard-dynamic", "token-bucket"} {
		cfg := adaptiveConfig(policy)
		cfg.StaticReserve = 5
		e := NewEngine(cfg)
		g := mk()
		e.AdmitNew(5, 1, g)
		e.ComputeTargetReservation(6, g)
		if len(g.gathers) != 0 {
			t.Errorf("%s asks its neighbours nothing but gathered %d times", policy, len(g.gathers))
		}
	}
}

// TestEngineSnapshot: the one-acquisition triple equals the three
// separate accessors.
func TestEngineSnapshot(t *testing.T) {
	e := NewEngine(adaptiveConfig("AC1"))
	e.AddConnection(1, ConnSpec{Min: 4, Prev: topology.Self}, 0)
	e.PublishReservation(2.5)
	used, capacity, lastBr := e.Snapshot()
	if used != e.UsedBandwidth() || capacity != e.Capacity() || lastBr != e.LastTargetReservation() || used != 4 || lastBr != 2.5 {
		t.Fatalf("Snapshot = %d,%d,%v, want 4,100,2.5", used, capacity, lastBr)
	}
}
