package core_test

import (
	"fmt"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// examplePeers wires three engines on a 3-cell line directly, playing
// the role internal/cellnet (in-process) or internal/signaling (TCP)
// normally plays.
type examplePeers struct {
	top     *topology.Topology
	self    topology.CellID
	engines []*core.Engine
	peers   []core.Peers
}

func (p examplePeers) nb(li topology.LocalIndex) (topology.CellID, *core.Engine) {
	id, _ := p.top.FromLocal(p.self, li)
	return id, p.engines[id]
}

func (p examplePeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	id, e := p.nb(li)
	toward, _ := p.top.LocalOf(id, p.self)
	return e.OutgoingReservation(now, toward, test), true
}

func (p examplePeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	_, e := p.nb(li)
	return e.UsedBandwidth(), e.Capacity(), e.LastTargetReservation(), true
}

func (p examplePeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	id, e := p.nb(li)
	return e.UsedBandwidth(), e.Capacity(), e.ComputeTargetReservation(now, p.peers[id]), true
}

func (p examplePeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	_, e := p.nb(li)
	return e.MaxSojourn(now), true
}

// Admission control with predictive reservation: the middle cell of a
// 3-cell line reserves bandwidth for the hand-offs its neighbors'
// estimators predict, then tests a new connection against what is left.
func ExampleEngine_AdmitNew() {
	top := topology.Line(3)
	cfg := core.Config{
		Capacity:   100,
		Admission:  core.MustPolicy("AC3"),
		PHDTarget:  0.01,
		TStart:     30, // a warmed-up estimation window for the example
		Estimation: predict.StationaryConfig(),
	}
	engines := make([]*core.Engine, 3)
	peers := make([]core.Peers, 3)
	for i := range engines {
		c := cfg
		c.Degree = top.Degree(topology.CellID(i))
		engines[i] = core.NewEngine(c)
	}
	for i := range engines {
		peers[i] = examplePeers{top: top, self: topology.CellID(i), engines: engines, peers: peers}
	}

	// Cell 0 holds a 4-BU video call that history says will hand off
	// into cell 1 within ~20 s.
	engines[0].RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 20})
	engines[0].AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 90)

	// Cell 1 is nearly full: 95 of 100 BUs in use.
	engines[1].AddConnection(2, core.ConnSpec{Min: 95, Prev: topology.Self}, 0)

	// A new 4-BU request in cell 1 must clear C − B_r = 100 − 4: the
	// predicted hand-off keeps the last BUs free.
	d := engines[1].AdmitNew(100, 4, peers[1])
	fmt.Printf("admit 4 BU: %v (B_r = %.0f)\n", d.Admitted, engines[1].LastTargetReservation())

	// A 1-BU voice call still fits beside the reservation.
	d = engines[1].AdmitNew(100, 1, peers[1])
	fmt.Printf("admit 1 BU: %v\n", d.Admitted)

	// Output:
	// admit 4 BU: false (B_r = 4)
	// admit 1 BU: true
}
