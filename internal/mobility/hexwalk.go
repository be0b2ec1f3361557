package mobility

import (
	"fmt"
	"math/rand/v2"

	"cellqos/internal/topology"
)

// HexWalk is a 2-D mobility model on a hexagonal grid, our substitution
// for the paper's future-work "two-dimensional cellular structures". A
// mobile picks a speed and an initial hex direction; in each cell it
// continues straight with probability Persistence, otherwise it turns
// ±60° with equal probability (road-network observation O4: direction is
// largely predictable from the path so far). Per-cell sojourn is
// DiameterKm/speed; the first cell's sojourn is a uniform fraction of
// that, since the mobile appears anywhere in the cell (A2).
//
// This keeps exactly what the paper's estimator consumes — correlated
// (prev, next, sojourn) triples — without simulating hexagon geometry.
type HexWalk struct {
	Top        *topology.Topology
	DiameterKm float64
	Speed      SpeedRange
	// Persistence is the probability of keeping the current direction at
	// each crossing; 1 means perfectly straight travel.
	Persistence float64
	// StationaryProb is the fraction of mobiles that never move.
	StationaryProb float64
}

// Validate checks the model's parameters: a positive cell diameter, a
// persistence in [0,1] and a valid speed range.
func (m *HexWalk) Validate() error {
	if !(m.DiameterKm > 0) {
		return fmt.Errorf("mobility: HexWalk diameter %v km must be > 0", m.DiameterKm)
	}
	if !(m.Persistence >= 0 && m.Persistence <= 1) {
		return fmt.Errorf("mobility: HexWalk persistence %v outside [0,1]", m.Persistence)
	}
	return m.Speed.Validate()
}

// NewPath implements Model.
func (m *HexWalk) NewPath(rng *rand.Rand, start topology.CellID) Path {
	return m.NewPathWithSpeed(rng, start, m.Speed)
}

// NewPathWithSpeed implements SpeedAware.
func (m *HexWalk) NewPathWithSpeed(rng *rand.Rand, start topology.CellID, sr SpeedRange) Path {
	if m.Top.Kind() != topology.KindHex {
		panic("mobility: HexWalk requires a hex topology")
	}
	if m.DiameterKm <= 0 {
		panic("mobility: HexWalk.DiameterKm must be positive")
	}
	if m.Persistence < 0 || m.Persistence > 1 {
		panic("mobility: HexWalk.Persistence must be in [0,1]")
	}
	if m.StationaryProb > 0 && rng.Float64() < m.StationaryProb {
		return stationaryPath{cell: start}
	}
	return &hexPath{
		m:     m,
		rng:   rng,
		cell:  start,
		dir:   rng.IntN(topology.NumHexDirs),
		speed: sr.Sample(rng),
	}
}

type hexPath struct {
	m     *HexWalk
	rng   *rand.Rand
	cell  topology.CellID
	dir   int
	speed float64
	first bool
	gone  bool
}

func (p *hexPath) NextHop() (Hop, bool) {
	if p.gone {
		return Hop{Next: topology.None}, false
	}
	full := p.m.DiameterKm / p.speed
	sojourn := full
	if !p.first {
		p.first = true
		sojourn = full * p.rng.Float64()
		if sojourn <= 0 {
			sojourn = 1e-12
		}
	} else if p.rng.Float64() >= p.m.Persistence {
		if p.rng.IntN(2) == 0 {
			p.dir = (p.dir + 1) % topology.NumHexDirs
		} else {
			p.dir = (p.dir + topology.NumHexDirs - 1) % topology.NumHexDirs
		}
	}
	next, ok := p.m.Top.HexStep(p.cell, p.dir)
	if !ok {
		p.gone = true
		return Hop{Next: topology.None, Sojourn: sojourn}, true
	}
	p.cell = next
	return Hop{Next: next, Sojourn: sojourn}, true
}
