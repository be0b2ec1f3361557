package wired

import (
	"cellqos/internal/topology"
)

// BSNode returns the wired node of a cell's base station.
func (b *Backbone) BSNode(cell topology.CellID) NodeID { return b.bsNode[cell] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.kinds) }

// NumLinks returns the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// LinkLoad returns a link's (used, capacity).
func (g *Graph) LinkLoad(idx int) (used, capacity int) {
	l := &g.links[idx]
	return l.used, l.capacity
}

// Last returns the path's terminal node.
func (p Path) Last() NodeID { return p.Nodes[len(p.Nodes)-1] }
