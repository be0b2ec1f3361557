package wired

import (
	"fmt"

	"cellqos/internal/topology"
)

// RerouteStrategy selects how a connection's wired path changes on
// hand-off.
type RerouteStrategy int

const (
	// FullReroute computes a fresh minimum-hop path from the new BS and
	// atomically swaps reservations (make-before-break: the new path is
	// reserved while the old one is still held, then the old one is
	// released — links shared by both paths must briefly carry both).
	FullReroute RerouteStrategy = iota
	// AnchorExtend keeps the existing path and prepends the segment from
	// the new BS to the old BS (the anchor), trading backbone bandwidth
	// for minimal re-routing signaling.
	AnchorExtend
)

// String names the strategy.
func (s RerouteStrategy) String() string {
	switch s {
	case FullReroute:
		return "full-reroute"
	case AnchorExtend:
		return "anchor-extend"
	default:
		return fmt.Sprintf("RerouteStrategy(%d)", int(s))
	}
}

// Backbone binds a cell topology to a wired graph: every cell has a BS
// node, and connections hold routed, reserved paths from their serving
// BS to a gateway. It tracks wired-level blocking and drop counts.
type Backbone struct {
	g        *Graph
	bsNode   []NodeID // cell -> BS node
	strategy RerouteStrategy

	// Blocked counts new connections refused for lack of wired capacity;
	// Dropped counts hand-offs that failed re-routing.
	Blocked uint64
	Dropped uint64
	// Reroutes counts successful hand-off re-routes.
	Reroutes uint64

	// attached marks the backbone as owned by a simulation run. Graph
	// reservations and the counters above are mutable and unsynchronized,
	// so a Backbone may belong to at most one Network ("one Network per
	// goroutine"); sharing one across concurrent runs would race.
	attached bool
}

// Attach claims the backbone for a single simulation run. It fails if
// the backbone already belongs to one — build a fresh Backbone per
// Network instead of reusing the pointer.
func (b *Backbone) Attach() error {
	if b.attached {
		return fmt.Errorf("wired: backbone already attached to a network " +
			"(build one Backbone per Network; they cannot be shared)")
	}
	b.attached = true
	return nil
}

// NewBackbone wraps a graph whose BS nodes are already mapped to cells.
// bsNode[i] is the wired node of cell i's base station.
func NewBackbone(g *Graph, bsNode []NodeID, strategy RerouteStrategy) *Backbone {
	if len(g.Gateways()) == 0 {
		panic("wired: backbone without a gateway")
	}
	for cell, n := range bsNode {
		if !g.valid(n) || g.Kind(n) != BS {
			panic(fmt.Sprintf("wired: cell %d mapped to non-BS node %d", cell, n))
		}
	}
	return &Backbone{g: g, bsNode: bsNode, strategy: strategy}
}

// Graph exposes the underlying graph.
func (b *Backbone) Graph() *Graph { return b.g }

// Cells returns how many cells have mapped BS nodes.
func (b *Backbone) Cells() int { return len(b.bsNode) }

// Connect routes and reserves a path for a new connection of bw BUs at
// the given cell. ok=false means the backbone blocked the connection.
func (b *Backbone) Connect(cell topology.CellID, bw int) (Path, bool) {
	p, ok := b.g.RouteToGateway(b.bsNode[cell], bw)
	if !ok || !b.g.Reserve(p, bw) {
		b.Blocked++
		return Path{}, false
	}
	return p, true
}

// Disconnect releases a connection's path.
func (b *Backbone) Disconnect(p Path, bw int) { b.g.Release(p, bw) }

// HandOff re-routes a connection from its current path to the new cell
// per the configured strategy. On success it returns the new path; on
// failure the old path remains reserved and ok is false (the caller
// decides whether the hand-off drops).
func (b *Backbone) HandOff(old Path, newCell topology.CellID, bw int) (Path, bool) {
	newBS := b.bsNode[newCell]
	switch b.strategy {
	case FullReroute:
		p, ok := b.g.RouteToGateway(newBS, bw)
		if !ok || !b.g.Reserve(p, bw) {
			b.Dropped++
			return Path{}, false
		}
		b.g.Release(old, bw)
		b.Reroutes++
		return p, true
	case AnchorExtend:
		// Route from the new BS to the head of the existing path (the
		// previous serving BS or an earlier anchor), then splice.
		anchor := old.Nodes[0]
		seg, ok := b.g.Route(newBS, bw, func(n NodeID) bool { return n == anchor })
		if !ok || !b.g.Reserve(seg, bw) {
			b.Dropped++
			return Path{}, false
		}
		b.Reroutes++
		joined := Path{
			Links: append(append([]int{}, seg.Links...), old.Links...),
			Nodes: append(append([]NodeID{}, seg.Nodes...), old.Nodes[1:]...),
		}
		return joined, true
	default:
		panic(fmt.Sprintf("wired: unknown strategy %v", b.strategy))
	}
}

// StarOfMSCs builds the deployment of Fig. 1(a) for a cell topology:
// cells are partitioned among nMSC switching centers (round-robin), each
// BS links to its MSC with bsLinkCap, MSCs link to a single gateway with
// mscLinkCap. Returns the backbone with the given re-route strategy.
func StarOfMSCs(top *topology.Topology, nMSC, bsLinkCap, mscLinkCap int, strategy RerouteStrategy) *Backbone {
	if nMSC < 1 {
		panic("wired: need at least one MSC")
	}
	g := NewGraph()
	gw := g.AddNode(Gateway)
	mscs := make([]NodeID, nMSC)
	for i := range mscs {
		mscs[i] = g.AddNode(MSC)
		g.AddLink(mscs[i], gw, mscLinkCap)
	}
	bs := make([]NodeID, top.NumCells())
	for c := 0; c < top.NumCells(); c++ {
		bs[c] = g.AddNode(BS)
		g.AddLink(bs[c], mscs[c%nMSC], bsLinkCap)
	}
	return NewBackbone(g, bs, strategy)
}

// MeshOfBSs builds the Fig. 1(b) deployment: BSs are directly linked to
// their cell neighbors with interCap, and every BS also links to a
// single gateway-attached MSC with upCap.
func MeshOfBSs(top *topology.Topology, interCap, upCap int, strategy RerouteStrategy) *Backbone {
	g := NewGraph()
	gw := g.AddNode(Gateway)
	msc := g.AddNode(MSC)
	g.AddLink(msc, gw, upCap*top.NumCells())
	bs := make([]NodeID, top.NumCells())
	for c := 0; c < top.NumCells(); c++ {
		bs[c] = g.AddNode(BS)
		g.AddLink(bs[c], msc, upCap)
	}
	for c := 0; c < top.NumCells(); c++ {
		for _, nb := range top.Neighbors(topology.CellID(c)) {
			if int(nb) > c {
				g.AddLink(bs[c], bs[nb], interCap)
			}
		}
	}
	return NewBackbone(g, bs, strategy)
}
