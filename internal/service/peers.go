package service

import (
	"fmt"

	"cellqos/internal/core"
	"cellqos/internal/topology"
)

// MeshPeers implements core.Peers by direct in-process calls between
// the engines a Server hosts — the single-process deployment where all
// of a metro area's base stations share one binary and no signaling
// network sits between them. The soak harness and the crash-recovery
// tests use it to exercise full Eq. 5/6 neighbor traffic without TCP,
// and cmd/bsnet's serve mode hosts its ring of cells through it.
type MeshPeers struct {
	top     *topology.Topology
	id      topology.CellID
	engines []*core.Engine
	peers   []core.Peers // aligned with engines; for recursive recompute
}

// NewMeshCells builds one Cell per topology cell, each wired to its
// neighbors through a MeshPeers view. build constructs the engine for
// a cell given its id and degree.
func NewMeshCells(top *topology.Topology, build func(id topology.CellID, degree int) *core.Engine) []Cell {
	n := top.NumCells()
	engines := make([]*core.Engine, n)
	peers := make([]core.Peers, n)
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		id := topology.CellID(i)
		engines[i] = build(id, top.Degree(id))
	}
	for i := 0; i < n; i++ {
		peers[i] = &MeshPeers{top: top, id: topology.CellID(i), engines: engines, peers: peers}
	}
	for i := 0; i < n; i++ {
		cells[i] = Cell{Engine: engines[i], Peers: peers[i]}
	}
	return cells
}

// neighbor resolves a local index to the neighbor's engine and the
// local index of this cell as seen from there.
func (m *MeshPeers) neighbor(li topology.LocalIndex) (*core.Engine, topology.LocalIndex, topology.CellID) {
	gid, ok := m.top.FromLocal(m.id, li)
	if !ok {
		panic(fmt.Sprintf("service: bad local index %d for cell %d", li, m.id))
	}
	toward, ok := m.top.LocalOf(gid, m.id)
	if !ok {
		panic("service: asymmetric neighborhood")
	}
	return m.engines[gid], toward, gid
}

// OutgoingReservation implements core.Peers (Eq. 5 at the neighbor).
func (m *MeshPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	nb, toward, _ := m.neighbor(li)
	return nb.OutgoingReservation(now, toward, test), true
}

// Snapshot implements core.Peers.
func (m *MeshPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	nb, _, _ := m.neighbor(li)
	used, capacity, lastBr := nb.Snapshot()
	return used, capacity, lastBr, true
}

// RecomputeReservation implements core.Peers: the neighbor recomputes
// its own B_r with its own peers view.
func (m *MeshPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	nb, _, gid := m.neighbor(li)
	br := nb.ComputeTargetReservation(now, m.peers[gid])
	return nb.UsedBandwidth(), nb.Capacity(), br, true
}

// MaxSojourn implements core.Peers.
func (m *MeshPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	nb, _, _ := m.neighbor(li)
	return nb.MaxSojourn(now), true
}
