package topology

import "fmt"

// Topology returns the partitioned topology.
func (p *Partition) Topology() *Topology { return p.t }

// Cells returns the cells owned by shard s in ascending ID order.
func (p *Partition) Cells(s int) []CellID {
	lo, hi := p.Range(s)
	out := make([]CellID, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// BoundaryCells returns shard s's cells with cross-shard neighbors, in
// ascending ID order.
func (p *Partition) BoundaryCells(s int) []CellID {
	lo, hi := p.Range(s)
	var out []CellID
	for c := lo; c < hi; c++ {
		if p.IsBoundary(c) {
			out = append(out, c)
		}
	}
	return out
}

// MaxDegree returns the largest cell degree in the topology.
func (t *Topology) MaxDegree() int {
	max := 0
	for _, ns := range t.neighbors {
		if len(ns) > max {
			max = len(ns)
		}
	}
	return max
}

// Range returns the half-open global-ID interval [lo, hi) owned by shard s.
func (p *Partition) Range(s int) (lo, hi CellID) {
	p.checkShard(s)
	return p.start[s], p.start[s+1]
}

// IsBoundary reports whether cell c has at least one neighbor owned by a
// different shard. Hand-offs leaving a non-boundary cell never cross
// shards, so the simulation layer only routes boundary-cell traffic
// through the inter-shard mailbox.
func (p *Partition) IsBoundary(c CellID) bool {
	s := p.ShardOf(c)
	for _, nb := range p.t.Neighbors(c) {
		if p.ShardOf(nb) != s {
			return true
		}
	}
	return false
}

func (p *Partition) checkShard(s int) {
	if s < 0 || s >= p.shards {
		panic(fmt.Sprintf("topology: shard %d out of range [0,%d)", s, p.shards))
	}
}
