package core_test

import (
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// The admission benchmarks drive AdmitNew on a cluster of degree-6
// engines (a wrapped hex-grid neighborhood) whose estimators are loaded
// with a full complement of hand-off history, at small/medium/large
// per-cell connection populations. Arrivals come in bursts that share a
// timestamp — the paper's "every new-connection request recomputes B_r"
// fast path — so the cost measured is exactly the Eq. 5–6 walk:
// ComputeTargetReservation → 6 × OutgoingReservation → per-connection
// estimator queries.

// benchDegree is the cluster fan-out; benchCells engines are wired into
// a circulant graph (neighbors at ring distance 1, 2 and 3), which gives
// every cell exactly benchDegree neighbors like a wrapped hex grid.
const (
	benchDegree = 6
	benchCells  = 12
	benchStart  = 1000.0
	benchBurst  = 8
)

// benchOffsets lists neighbor ring offsets in local-index order 1..6.
// The inverse direction of local index li is li^1 in 0-based form:
// offsets come in ± pairs, so (li-1)^1+1 flips +d to −d.
var benchOffsets = [benchDegree]int{1, -1, 2, -2, 3, -3}

func benchNeighbor(self int, li topology.LocalIndex) int {
	return ((self+benchOffsets[li-1])%benchCells + benchCells) % benchCells
}

func benchToward(li topology.LocalIndex) topology.LocalIndex {
	return topology.LocalIndex((int(li)-1)^1) + 1
}

// benchCluster is an in-memory cluster: engines reach each other through
// benchPeers, which delegates straight to the neighbor engine (the
// cellnet wiring without the simulation around it).
type benchCluster struct {
	engines []*core.Engine
	peers   []*benchPeers
}

type benchPeers struct {
	cl   *benchCluster
	self int
}

func (p *benchPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.OutgoingReservation(now, benchToward(li), test), true
}

func (p *benchPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.UsedBandwidth(), nb.Capacity(), nb.LastTargetReservation(), true
}

func (p *benchPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	id := benchNeighbor(p.self, li)
	nb := p.cl.engines[id]
	br := nb.ComputeTargetReservation(now, p.cl.peers[id])
	return nb.UsedBandwidth(), nb.Capacity(), br, true
}

func (p *benchPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	nb := p.cl.engines[benchNeighbor(p.self, li)]
	return nb.MaxSojourn(now), true
}

// benchAddConn registers a rigid connection through the current public
// entry point (kept as a helper so the benchmark body survives API
// migrations unchanged).
func benchAddConn(e *core.Engine, id core.ConnID, bw int, prev topology.LocalIndex, now float64) {
	e.AddConnection(id, core.ConnSpec{Min: bw, Prev: prev}, now)
}

// newBenchCluster builds the cluster with connsPerCell active rigid
// connections per cell and every estimator loaded with 40 quadruplets
// for each (prev, next) pair — sojourns spread over [5, 125) so Eq. 4
// denominators stay populated across the extant-sojourn range.
func newBenchCluster(policy string, connsPerCell int) *benchCluster {
	cfg := core.Config{
		Capacity:   2*connsPerCell + 64,
		Degree:     benchDegree,
		Admission:  core.MustPolicy(policy),
		PHDTarget:  0.01,
		TStart:     4,
		Estimation: predict.StationaryConfig(),
	}
	cl := &benchCluster{}
	for c := 0; c < benchCells; c++ {
		e := core.NewEngine(cfg)
		ev := 0.0
		for prev := topology.LocalIndex(0); int(prev) <= benchDegree; prev++ {
			for next := topology.LocalIndex(1); int(next) <= benchDegree; next++ {
				for k := 0; k < 40; k++ {
					soj := 5 + float64((k*7+int(prev)*3+int(next))%120)
					e.RecordDeparture(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: soj})
					ev += 0.01
				}
			}
		}
		for j := 0; j < connsPerCell; j++ {
			id := core.ConnID(c)<<32 | core.ConnID(j+1)
			prev := topology.LocalIndex(j % (benchDegree + 1))
			benchAddConn(e, id, 1, prev, benchStart-float64(j%90))
		}
		cl.engines = append(cl.engines, e)
		cl.peers = append(cl.peers, &benchPeers{cl: cl, self: c})
	}
	return cl
}

// benchmarkAdmitNew measures sustained admission throughput: requests
// arrive in bursts of benchBurst sharing one timestamp, round-robin over
// the cells; admitted connections are registered and the per-cell
// population is held steady by retiring the oldest benchmark-added
// connection once four are live. Only the allocation profile is gated
// (BENCH_admission.json); the layer's time is measured in bench/.
func benchmarkAdmitNew(b *testing.B, connsPerCell int) {
	cl := newBenchCluster("AC1", connsPerCell)
	now := benchStart
	nextID := core.ConnID(1) << 40
	var live [benchCells][]core.ConnID
	for c := range live {
		live[c] = make([]core.ConnID, 0, 8)
	}
	op := 0
	admit := func() {
		cell := op % benchCells
		e := cl.engines[cell]
		if e.AdmitNew(now, 1, cl.peers[cell]).Admitted {
			if len(live[cell]) == 4 {
				e.RemoveConnection(live[cell][0])
				copy(live[cell], live[cell][1:])
				live[cell] = live[cell][:3]
			}
			benchAddConn(e, nextID, 1, topology.Self, now)
			live[cell] = append(live[cell], nextID)
			nextID++
		}
		op++
		if op%benchBurst == 0 {
			now += 0.25
		}
	}
	// Two passes over the cells before the timer starts: in the first,
	// the neighbours' admissions build every engine's Eq. 5 view; in the
	// second, each engine's own AddConnection grows that view's columns.
	// Inside the timed loop this one-time growth, divided by b.N, would
	// make B/op depend on how many iterations the host fits in.
	for range 2 * benchCells {
		admit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit()
	}
}

func BenchmarkAdmitNew(b *testing.B) {
	b.Run("small", func(b *testing.B) { benchmarkAdmitNew(b, 16) })
	b.Run("medium", func(b *testing.B) { benchmarkAdmitNew(b, 64) })
	b.Run("large", func(b *testing.B) { benchmarkAdmitNew(b, 256) })
}

// BenchmarkOutgoingReservation isolates the Eq. 5 answer path of one
// loaded engine: repeated queries at one timestamp cycling over the six
// directions — the exact pattern a burst of neighbor admissions
// produces. This is the steady-state estimator-query layer, which must
// run allocation-free.
func BenchmarkOutgoingReservation(b *testing.B) {
	cl := newBenchCluster("AC1", 256)
	e := cl.engines[0]
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		toward := topology.LocalIndex(i%benchDegree) + 1
		sum += e.OutgoingReservation(benchStart, toward, 4)
	}
	benchSink = sum
}

// BenchmarkColdCell measures a cell that starts empty, the shape of
// every cell of the 10,000-cell metro: each op builds one degree-6
// engine with a few quadruplets per (prev, next) pair, fills it to 64
// connections at advancing timestamps with one Eq. 5 query per add, and
// drains it. The ledger pins what that allocates — the engine, its
// estimator, and the growth of its connection table and Eq. 5 view.
func BenchmarkColdCell(b *testing.B) {
	const conns = 64
	cfg := core.Config{
		Capacity:   conns,
		Degree:     benchDegree,
		Admission:  core.MustPolicy("AC1"),
		PHDTarget:  0.01,
		TStart:     4,
		Estimation: predict.StationaryConfig(),
	}
	b.ReportAllocs()
	sum := 0.0
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(cfg)
		ev := 0.0
		for prev := topology.LocalIndex(0); int(prev) <= benchDegree; prev++ {
			for next := topology.LocalIndex(1); int(next) <= benchDegree; next++ {
				for k := 0; k < 3; k++ {
					soj := 5 + float64((k*37+int(prev)*11+int(next)*5)%120)
					e.RecordDeparture(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: soj})
					ev += 0.01
				}
			}
		}
		now := benchStart
		for j := 0; j < conns; j++ {
			benchAddConn(e, core.ConnID(j+1), 1, topology.LocalIndex(j%(benchDegree+1)), now)
			sum += e.OutgoingReservation(now, topology.LocalIndex(j%benchDegree)+1, 4)
			now += 0.25
		}
		for j := conns; j >= 1; j-- {
			e.RemoveConnection(core.ConnID(j))
		}
	}
	benchSink = sum
}

var benchSink float64
