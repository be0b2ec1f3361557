// Package wired models the cellular system's wired backbone (paper §2,
// Fig. 1): base stations, mobile switching centers and gateway nodes
// joined by capacitated links. A connection occupies bandwidth along a
// routed path from its serving BS to a gateway; a hand-off re-routes the
// path. The paper defers wired-link reservation to future work ("our
// scheme can be extended easily to include wired link bandwidth
// reservation by considering the routing and re-routing inside the wired
// network", §2/§7); this package is that extension.
//
// Two re-routing strategies are provided: FullReroute computes a fresh
// path from the new BS, and AnchorExtend keeps the old path and appends
// the inter-BS segment — the classic anchor/extension trade-off (lower
// signaling and no mid-call path change, but longer paths that waste
// backbone bandwidth).
package wired

import (
	"fmt"
)

// NodeID identifies a backbone node.
type NodeID int

// NodeKind classifies backbone nodes.
type NodeKind int

const (
	// BS is a base-station node (one per cell).
	BS NodeKind = iota
	// MSC is a mobile switching center.
	MSC
	// Gateway connects the cellular system to the wide-area network;
	// every connection's wired path terminates at a gateway.
	Gateway
)

// String names the kind.
func (k NodeKind) String() string {
	switch k {
	case BS:
		return "bs"
	case MSC:
		return "msc"
	case Gateway:
		return "gateway"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// link is one undirected capacitated edge.
type link struct {
	a, b     NodeID
	capacity int
	used     int
}

// Graph is a mutable backbone topology. Build it up front; concurrent
// use is not supported.
type Graph struct {
	kinds    []NodeKind
	links    []link
	incident [][]int // node -> indices into links
	gateways []NodeID
}

// NewGraph returns an empty backbone.
func NewGraph() *Graph { return &Graph{} }

// AddNode creates a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind) NodeID {
	id := NodeID(len(g.kinds))
	g.kinds = append(g.kinds, kind)
	g.incident = append(g.incident, nil)
	if kind == Gateway {
		g.gateways = append(g.gateways, id)
	}
	return id
}

// AddLink joins two nodes with an undirected link of the given capacity
// in BUs, returning the link index.
func (g *Graph) AddLink(a, b NodeID, capacity int) int {
	if !g.valid(a) || !g.valid(b) {
		panic(fmt.Sprintf("wired: bad link endpoints %d-%d", a, b))
	}
	if a == b {
		panic("wired: self-link")
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("wired: non-positive capacity %d", capacity))
	}
	idx := len(g.links)
	g.links = append(g.links, link{a: a, b: b, capacity: capacity})
	g.incident[a] = append(g.incident[a], idx)
	g.incident[b] = append(g.incident[b], idx)
	return idx
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.kinds) }

// Kind returns a node's kind.
func (g *Graph) Kind(n NodeID) NodeKind {
	if !g.valid(n) {
		panic(fmt.Sprintf("wired: bad node %d", n))
	}
	return g.kinds[n]
}

// Gateways lists the gateway nodes.
func (g *Graph) Gateways() []NodeID { return g.gateways }

// other returns the far endpoint of link idx as seen from n.
func (g *Graph) other(idx int, n NodeID) NodeID {
	l := &g.links[idx]
	if l.a == n {
		return l.b
	}
	return l.a
}

// Path is a wired route: the link indices from a BS toward a gateway, in
// order, plus the node sequence for diagnostics.
type Path struct {
	Links []int
	Nodes []NodeID // len(Links)+1, starting at the BS
}

// Valid reports whether the path is non-degenerate.
func (p Path) Valid() bool { return len(p.Nodes) >= 1 && len(p.Nodes) == len(p.Links)+1 }

// Route finds a minimum-hop path from src to any node satisfying goal,
// using only links with at least bw free capacity. It returns ok=false
// when no such path exists. Deterministic: BFS explores links in
// insertion order.
func (g *Graph) Route(src NodeID, bw int, goal func(NodeID) bool) (Path, bool) {
	if !g.valid(src) {
		panic(fmt.Sprintf("wired: bad source %d", src))
	}
	if goal(src) {
		return Path{Nodes: []NodeID{src}}, true
	}
	prevLink := make([]int, len(g.kinds))
	for i := range prevLink {
		prevLink[i] = -1
	}
	visited := make([]bool, len(g.kinds))
	visited[src] = true
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, li := range g.incident[n] {
			l := &g.links[li]
			if l.capacity-l.used < bw {
				continue
			}
			m := g.other(li, n)
			if visited[m] {
				continue
			}
			visited[m] = true
			prevLink[m] = li
			if goal(m) {
				return g.assemble(src, m, prevLink), true
			}
			queue = append(queue, m)
		}
	}
	return Path{}, false
}

// RouteToGateway finds a minimum-hop feasible path to any gateway.
func (g *Graph) RouteToGateway(src NodeID, bw int) (Path, bool) {
	return g.Route(src, bw, func(n NodeID) bool { return g.kinds[n] == Gateway })
}

// assemble walks prevLink pointers back from dst to src.
func (g *Graph) assemble(src, dst NodeID, prevLink []int) Path {
	var revLinks []int
	var revNodes []NodeID
	n := dst
	for n != src {
		li := prevLink[n]
		revLinks = append(revLinks, li)
		revNodes = append(revNodes, n)
		n = g.other(li, n)
	}
	p := Path{
		Links: make([]int, 0, len(revLinks)),
		Nodes: make([]NodeID, 0, len(revNodes)+1),
	}
	p.Nodes = append(p.Nodes, src)
	for i := len(revLinks) - 1; i >= 0; i-- {
		p.Links = append(p.Links, revLinks[i])
		p.Nodes = append(p.Nodes, revNodes[i])
	}
	return p
}

// Reserve claims bw BUs on every link of the path, all-or-nothing. It
// returns false (reserving nothing) if any link lacks room.
func (g *Graph) Reserve(p Path, bw int) bool {
	if bw <= 0 {
		panic(fmt.Sprintf("wired: non-positive reservation %d", bw))
	}
	for _, li := range p.Links {
		l := &g.links[li]
		if l.capacity-l.used < bw {
			return false
		}
	}
	for _, li := range p.Links {
		g.links[li].used += bw
	}
	return true
}

// Release frees bw BUs on every link of the path.
func (g *Graph) Release(p Path, bw int) {
	for _, li := range p.Links {
		l := &g.links[li]
		if l.used < bw {
			panic(fmt.Sprintf("wired: releasing %d from link %d with %d used", bw, li, l.used))
		}
		l.used -= bw
	}
}

// TotalUsed sums used bandwidth over all links (backbone load metric).
func (g *Graph) TotalUsed() int {
	sum := 0
	for i := range g.links {
		sum += g.links[i].used
	}
	return sum
}
