// Package mobility generates mobile movement: which cell a mobile visits
// next and how long it stays in the current one. It implements the
// paper's simulation assumption A4 (1-D constant-speed travel in a random
// direction, never turning around), the Table 3 variant (all mobiles in
// one direction on an open line), and a 2-D hexagonal walk with direction
// persistence for the paper's future-work two-dimensional scenarios.
//
// A mobile's movement is a PathState, an iterator over (next cell,
// sojourn time) hops. Each model fills a caller-owned one with InitPath,
// so a simulator can keep it inline and reuse it for the next mobile;
// NewPath returns a new one behind the Path interface. Leaving the
// coverage area is reported as next == topology.None with ok == false
// thereafter.
package mobility

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cellqos/internal/topology"
)

// KmhToKms converts km/h to km/s.
const KmhToKms = 1.0 / 3600.0

// Hop describes one cell visit.
type Hop struct {
	// Next is the cell the mobile enters when the sojourn elapses, or
	// topology.None if the mobile leaves the coverage area then.
	Next topology.CellID
	// Sojourn is the time in seconds the mobile spends in the current
	// cell before crossing. math.Inf(1) means the mobile never leaves.
	Sojourn float64
}

// Path iterates a single mobile's movement. Implementations are not safe
// for concurrent use.
type Path interface {
	// NextHop returns the upcoming hop out of the cell the mobile is
	// currently in. ok is false once the mobile has left the coverage
	// area. The first call describes the departure from the start cell.
	NextHop() (Hop, bool)
}

// Model mints movement paths for new mobiles.
type Model interface {
	// NewPath creates the movement of a mobile whose connection begins in
	// cell start. Randomness must come only from rng so runs are
	// reproducible.
	NewPath(rng *rand.Rand, start topology.CellID) Path
}

// SpeedAware is an optional Model extension for time-varying scenarios:
// the caller supplies the speed range in force when the mobile appears,
// overriding the model's configured range (a range with MaxKmh == 0
// gives none and keeps it).
type SpeedAware interface {
	Model
	NewPathWithSpeed(rng *rand.Rand, start topology.CellID, sr SpeedRange) Path
}

// SpeedRange is a uniform speed distribution in km/h (paper A4:
// "a speed chosen randomly between SPmin and SPmax").
type SpeedRange struct {
	MinKmh, MaxKmh float64
}

// Validate checks that the range is finite with 0 ≤ min ≤ max; NaN
// fails it.
func (r SpeedRange) Validate() error {
	if !(r.MinKmh >= 0 && r.MinKmh <= r.MaxKmh && !math.IsInf(r.MaxKmh, 1)) {
		return fmt.Errorf("mobility: speed range [%v,%v] must be finite with 0 <= min <= max", r.MinKmh, r.MaxKmh)
	}
	return nil
}

// Sample draws a speed in km/s.
func (r SpeedRange) Sample(rng *rand.Rand) float64 {
	if r.MinKmh < 0 || r.MaxKmh < r.MinKmh {
		panic(fmt.Sprintf("mobility: bad speed range [%v,%v]", r.MinKmh, r.MaxKmh))
	}
	kmh := r.MinKmh + rng.Float64()*(r.MaxKmh-r.MinKmh)
	return kmh * KmhToKms
}

// HighMobility and LowMobility are the paper's two stationary-scenario
// speed ranges (§5.2).
var (
	HighMobility = SpeedRange{80, 120}
	LowMobility  = SpeedRange{40, 60}
)

// Direction selection for 1-D models.
type DirectionPolicy int

const (
	// RandomDirection picks +1 or −1 with equal probability (paper A4).
	RandomDirection DirectionPolicy = iota
	// ForwardOnly forces all mobiles to travel toward increasing cell
	// index (paper Table 3: "all mobiles follow the direction from cell
	// <1> to cell <10>").
	ForwardOnly
	// BackwardOnly forces travel toward decreasing cell index.
	BackwardOnly
)

// Linear is the 1-D constant-speed model of paper assumption A4: a mobile
// appears uniformly within its start cell, picks a speed and a direction,
// and runs straight forever. It works on ring and line topologies; on a
// line, crossing a border leaves the coverage area.
type Linear struct {
	Top        *topology.Topology
	DiameterKm float64 // cell diameter (paper A1: 1 km)
	Speed      SpeedRange
	Direction  DirectionPolicy
	// StationaryProb is the probability that a mobile never moves
	// (0 in the paper's experiments; used for mixed-mobility extensions).
	StationaryProb float64
}

// Validate checks the model's parameters: a positive cell diameter and
// a valid speed range.
func (m *Linear) Validate() error {
	if !(m.DiameterKm > 0) {
		return fmt.Errorf("mobility: Linear diameter %v km must be > 0", m.DiameterKm)
	}
	return m.Speed.Validate()
}

// NewPath implements Model.
func (m *Linear) NewPath(rng *rand.Rand, start topology.CellID) Path {
	return m.NewPathWithSpeed(rng, start, m.Speed)
}

// NewPathWithSpeed implements SpeedAware: the time-varying scenarios pick
// the speed range in force at connection-setup time (§5.3).
func (m *Linear) NewPathWithSpeed(rng *rand.Rand, start topology.CellID, sr SpeedRange) Path {
	ps := new(PathState)
	m.InitPath(ps, rng, start, sr)
	return ps
}

// InitPath fills ps with a new mobile's movement, drawing from rng what
// NewPathWithSpeed draws, in the same order. A range with MaxKmh == 0
// (none given) takes the model's Speed.
func (m *Linear) InitPath(ps *PathState, rng *rand.Rand, start topology.CellID, sr SpeedRange) {
	if m.Top.Kind() != topology.KindRing && m.Top.Kind() != topology.KindLine {
		panic("mobility: Linear requires a ring or line topology")
	}
	if m.DiameterKm <= 0 {
		panic("mobility: Linear.DiameterKm must be positive")
	}
	if m.StationaryProb > 0 && rng.Float64() < m.StationaryProb {
		*ps = PathState{kind: pathStationary, cell: int32(start)}
		return
	}
	if sr.MaxKmh == 0 {
		sr = m.Speed
	}
	dir := int8(+1)
	switch m.Direction {
	case RandomDirection:
		if rng.IntN(2) == 0 {
			dir = -1
		}
	case BackwardOnly:
		dir = -1
	}
	offset := rng.Float64() * m.DiameterKm // A2: uniform within the cell
	*ps = PathState{kind: pathLinear, lin: m, cell: int32(start), offset: offset, speed: sr.Sample(rng), dir: dir}
}

// PathState is one mobile's movement under any of the package's models:
// a kind tag and the union of the models' per-path state. It is a plain
// value, so a caller can keep it inline (the simulator keeps it in the
// connection's slot) and refill it for each new mobile with a model's
// InitPath, allocating nothing; NewPath and NewPathWithSpeed return a
// fresh one. The zero PathState is no path: NextHop panics on it.
type PathState struct {
	lin    *Linear
	hex    *HexWalk
	rng    *rand.Rand // HexWalk: turns are drawn hop by hop
	offset float64    // Linear: km from the cell's low edge; only meaningful pre-first-hop
	speed  float64    // km/s
	cell   int32
	dir    int8 // Linear: ±1; HexWalk: a hex direction
	kind   pathKind
	first  bool // set after the first hop has been consumed
	gone   bool
}

type pathKind uint8

const (
	pathStationary pathKind = iota + 1 // never leaves its cell
	pathLinear
	pathHex
)

// NextHop implements Path.
func (p *PathState) NextHop() (Hop, bool) {
	switch p.kind {
	case pathLinear:
		return p.linearHop()
	case pathHex:
		return p.hexHop()
	case pathStationary:
		return Hop{Next: topology.None, Sojourn: math.Inf(1)}, true
	}
	panic("mobility: NextHop on a PathState no model has initialized")
}

func (p *PathState) linearHop() (Hop, bool) {
	if p.gone {
		return Hop{Next: topology.None}, false
	}
	d := p.lin.DiameterKm
	dist := d
	if !p.first {
		p.first = true
		if p.dir > 0 {
			dist = d - p.offset
		} else {
			dist = p.offset
		}
		if dist <= 0 { // landed exactly on the boundary: cross at once
			dist = 1e-12
		}
	}
	sojourn := dist / p.speed
	next := p.neighborInDir()
	if next == topology.None {
		p.gone = true
		return Hop{Next: topology.None, Sojourn: sojourn}, true
	}
	p.cell = int32(next)
	return Hop{Next: next, Sojourn: sojourn}, true
}

// neighborInDir resolves the adjacent cell in the travel direction, or
// None when the mobile exits an open line.
func (p *PathState) neighborInDir() topology.CellID {
	top := p.lin.Top
	n := top.NumCells()
	j := int(p.cell) + int(p.dir)
	if top.Kind() == topology.KindRing {
		return topology.CellID((j + n) % n)
	}
	if j < 0 || j >= n {
		return topology.None
	}
	return topology.CellID(j)
}

// Stationary is a Model whose mobiles never move; useful for indoor
// scenarios and as a degenerate case in tests.
type Stationary struct{}

// NewPath implements Model.
func (m Stationary) NewPath(rng *rand.Rand, start topology.CellID) Path {
	ps := new(PathState)
	m.InitPath(ps, rng, start, SpeedRange{})
	return ps
}

// InitPath fills ps with a mobile that stays in start; it draws nothing.
func (Stationary) InitPath(ps *PathState, _ *rand.Rand, start topology.CellID, _ SpeedRange) {
	*ps = PathState{kind: pathStationary, cell: int32(start)}
}
