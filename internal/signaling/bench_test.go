package signaling

import (
	"math/rand/v2"
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// BenchmarkAdmitSignaled measures one signaled admission decision: AC3
// on a wrapped 4×4 hex mesh (degree 6) over net.Pipe, cells held near
// 80 BU with a full hand-off history — the repository benchmark's
// signal-mesh workload without the sockets. Besides ns/op and the
// allocation profile it reports frames/op, the wire cost of the paper's
// N_calc: BENCH_admission.json pins allocations and frames (one request
// and one reply per neighbour); like every ledger row, never time.
func BenchmarkAdmitSignaled(b *testing.B) {
	const targetBU = 80
	top := topology.Hex(4, 4, true)
	p := newPlane(top, planeConfig("AC3"), false)
	defer p.close()
	rng := rand.New(rand.NewPCG(1, 0x7369676e))
	mix := traffic.Mix{VoiceRatio: 0.8}
	type liveConn struct {
		id core.ConnID
		bw int
	}
	live := make([][]liveConn, len(p.nodes))
	var nextID core.ConnID
	add := func(c, bw int, prev topology.LocalIndex, now float64) {
		nextID++
		p.nodes[c].Engine().AddConnection(nextID, core.ConnSpec{Min: bw, Prev: prev}, now)
		live[c] = append(live[c], liveConn{nextID, bw})
	}
	for c, n := range p.nodes {
		deg := top.Degree(topology.CellID(c))
		seedHistory(n.Engine(), deg, 40, func() float64 { return 20 + rng.Float64()*300 })
		for used := 0; used < targetBU; {
			bw := mix.Sample(rng).Bandwidth
			add(c, bw, topology.LocalIndex(rng.IntN(deg+1)), 60+rng.Float64()*30)
			used += bw
		}
	}
	frames0, _ := p.traffic()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := 100 + float64(i)*0.05
		c := rng.IntN(len(p.nodes))
		bw := mix.Sample(rng).Bandwidth
		eng := p.nodes[c].Engine()
		if eng.AdmitNew(now, bw, p.nodes[c].Peers()).Admitted {
			add(c, bw, topology.Self, now)
		}
		// Calls end, oldest first, while the cell is above its target.
		for used := eng.UsedBandwidth(); used > targetBU && len(live[c]) > 0; {
			eng.RemoveConnection(live[c][0].id)
			used -= live[c][0].bw
			live[c] = live[c][1:]
		}
	}
	b.StopTimer()
	frames1, _ := p.traffic()
	b.ReportMetric(float64(frames1-frames0)/float64(b.N), "frames/op")
}
