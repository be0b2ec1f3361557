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
	ps := new(PathState)
	m.InitPath(ps, rng, start, sr)
	return ps
}

// InitPath fills ps with a new mobile's movement, drawing from rng what
// NewPathWithSpeed draws, in the same order; the path keeps rng for the
// turns it draws hop by hop. A range with MaxKmh == 0 (none given) takes
// the model's Speed.
func (m *HexWalk) InitPath(ps *PathState, rng *rand.Rand, start topology.CellID, sr SpeedRange) {
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
		*ps = PathState{kind: pathStationary, cell: int32(start)}
		return
	}
	if sr.MaxKmh == 0 {
		sr = m.Speed
	}
	dir := int8(rng.IntN(topology.NumHexDirs))
	*ps = PathState{kind: pathHex, hex: m, rng: rng, cell: int32(start), dir: dir, speed: sr.Sample(rng)}
}

func (p *PathState) hexHop() (Hop, bool) {
	if p.gone {
		return Hop{Next: topology.None}, false
	}
	full := p.hex.DiameterKm / p.speed
	sojourn := full
	if !p.first {
		p.first = true
		sojourn = full * p.rng.Float64()
		if sojourn <= 0 {
			sojourn = 1e-12
		}
	} else if p.rng.Float64() >= p.hex.Persistence {
		const dirs = int8(topology.NumHexDirs)
		if p.rng.IntN(2) == 0 {
			p.dir = (p.dir + 1) % dirs
		} else {
			p.dir = (p.dir + dirs - 1) % dirs
		}
	}
	next, ok := p.hex.Top.HexStep(topology.CellID(p.cell), int(p.dir))
	if !ok {
		p.gone = true
		return Hop{Next: topology.None, Sojourn: sojourn}, true
	}
	p.cell = int32(next)
	return Hop{Next: next, Sojourn: sojourn}, true
}
