// Package mobility generates mobile movement: which cell a mobile visits
// next and how long it stays in the current one. It implements the
// paper's simulation assumption A4 (1-D constant-speed travel in a random
// direction, never turning around), the Table 3 variant (all mobiles in
// one direction on an open line), and a 2-D hexagonal walk with direction
// persistence for the paper's future-work two-dimensional scenarios.
//
// A Model mints a Path per mobile; the Path is an iterator over
// (next cell, sojourn time) hops. Leaving the coverage area is reported
// as next == topology.None with ok == false thereafter.
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
// overriding the model's configured range.
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
	if m.Top.Kind() != topology.KindRing && m.Top.Kind() != topology.KindLine {
		panic("mobility: Linear requires a ring or line topology")
	}
	if m.DiameterKm <= 0 {
		panic("mobility: Linear.DiameterKm must be positive")
	}
	if m.StationaryProb > 0 && rng.Float64() < m.StationaryProb {
		return stationaryPath{cell: start}
	}
	dir := +1
	switch m.Direction {
	case RandomDirection:
		if rng.IntN(2) == 0 {
			dir = -1
		}
	case BackwardOnly:
		dir = -1
	}
	return &linearPath{
		m:      m,
		cell:   start,
		offset: rng.Float64() * m.DiameterKm, // A2: uniform within the cell
		speed:  sr.Sample(rng),
		dir:    dir,
	}
}

type linearPath struct {
	m      *Linear
	cell   topology.CellID
	offset float64 // km from the cell's low edge; only meaningful pre-first-hop
	speed  float64 // km/s
	dir    int     // ±1
	gone   bool
	first  bool // set after the first hop has been consumed
}

func (p *linearPath) NextHop() (Hop, bool) {
	if p.gone {
		return Hop{Next: topology.None}, false
	}
	d := p.m.DiameterKm
	dist := d
	if !p.first {
		p.first = true
		if p.dir > 0 {
			dist = d - p.offset
		} else {
			dist = p.offset
		}
		if dist <= 0 { // landed exactly on the boundary; treat as full next cell? no: cross immediately
			dist = 1e-12
		}
	}
	sojourn := dist / p.speed
	next := p.neighborInDir()
	if next == topology.None {
		p.gone = true
		return Hop{Next: topology.None, Sojourn: sojourn}, true
	}
	p.cell = next
	return Hop{Next: next, Sojourn: sojourn}, true
}

// neighborInDir resolves the adjacent cell in the travel direction, or
// None when the mobile exits an open line.
func (p *linearPath) neighborInDir() topology.CellID {
	n := p.m.Top.NumCells()
	i := int(p.cell)
	j := i + p.dir
	if p.m.Top.Kind() == topology.KindRing {
		return topology.CellID((j + n) % n)
	}
	if j < 0 || j >= n {
		return topology.None
	}
	return topology.CellID(j)
}

// stationaryPath never leaves its cell.
type stationaryPath struct{ cell topology.CellID }

func (stationaryPath) NextHop() (Hop, bool) {
	return Hop{Next: topology.None, Sojourn: math.Inf(1)}, true
}

// Stationary is a Model whose mobiles never move; useful for indoor
// scenarios and as a degenerate case in tests.
type Stationary struct{}

// NewPath implements Model.
func (Stationary) NewPath(_ *rand.Rand, start topology.CellID) Path {
	return stationaryPath{cell: start}
}
