package signaling

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
)

// serialPeers hides every optional interface of the Peers it wraps, as
// any decorator that embeds only core.Peers does (the benchmark's
// tracing wrapper is one): the engine finds no core.Prefetcher and
// drives the serial per-call path — the path the view falls through to,
// the one retries continue on, and this file's differential oracle.
type serialPeers struct{ core.Peers }

// plane is one wired deployment: BS nodes over net.Pipe, directly
// (mesh) or through an MSC (star).
type plane struct {
	nodes []*BSNode
	msc   *MSC
}

func newPlane(top *topology.Topology, cfg core.Config, star bool) *plane {
	p := &plane{nodes: make([]*BSNode, top.NumCells())}
	for i := range p.nodes {
		p.nodes[i] = NewBSNode(topology.CellID(i), top, cfg)
	}
	if star {
		p.msc = NewMSC()
		ConnectStar(p.msc, p.nodes)
	} else {
		ConnectMesh(p.nodes)
	}
	return p
}

func (p *plane) close() {
	for _, n := range p.nodes {
		n.Close()
	}
	if p.msc != nil {
		p.msc.Close()
	}
}

// cells returns the plane's engines and the Peers value a driver hands
// each one: the node's own (serial=false) or the same behind
// serialPeers.
func (p *plane) cells(serial bool) ([]*core.Engine, []core.Peers) {
	engines := make([]*core.Engine, len(p.nodes))
	peers := make([]core.Peers, len(p.nodes))
	for i, n := range p.nodes {
		engines[i] = n.Engine()
		peers[i] = n.Peers()
		if serial {
			peers[i] = serialPeers{peers[i]}
		}
	}
	return engines, peers
}

// traffic totals frames and bytes sent on every link of the plane.
func (p *plane) traffic() (frames, bytes uint64) {
	add := func(links map[NodeID]*Peer) {
		for _, l := range links {
			frames += l.Stats().Sent.Load()
			bytes += l.Stats().BytesSent.Load()
		}
	}
	for _, n := range p.nodes {
		n.linkMu.Lock()
		add(n.links)
		n.linkMu.Unlock()
	}
	if p.msc != nil {
		p.msc.mu.Lock()
		add(p.msc.links)
		p.msc.mu.Unlock()
	}
	return frames, bytes
}

func planeConfig(policy string) core.Config {
	return core.Config{
		Capacity:   100,
		Admission:  core.MustPolicy(policy),
		PHDTarget:  0.01,
		TStart:     1,
		Estimation: predict.StationaryConfig(),
	}
}

// seedHistory records perPair hand-off quadruplets for every (prev,
// next) pair of a degree-deg cell, sojourns drawn from sojourn.
func seedHistory(e *core.Engine, deg, perPair int, sojourn func() float64) {
	ev := 0.0
	for prev := 0; prev <= deg; prev++ {
		for next := 1; next <= deg; next++ {
			for k := 0; k < perPair; k++ {
				e.RecordDeparture(predict.Quadruplet{Event: ev, Prev: topology.LocalIndex(prev), Next: topology.LocalIndex(next), Sojourn: sojourn()})
				ev += 0.001
			}
		}
	}
}

// script drives one seeded sequence of admissions, departures, hand-off
// arrivals and bare Eq. 6 evaluations over a set of engines and returns
// everything observable as a flat trace: each decision, each B_r and,
// after every step, every cell's (used, B_r^prev, T_est) as raw bits.
// Cells start near capacity so AC3's snapshot test fails for some
// neighbours and its recompute path runs; admissionsWithRecompute says
// how often.
func script(engines []*core.Engine, peers []core.Peers, top *topology.Topology, seed uint64, steps int) (trace []uint64, admissionsWithRecompute int) {
	rng := rand.New(rand.NewPCG(seed, 0x70726566))
	type live struct {
		id   core.ConnID
		prev topology.LocalIndex
		at   float64
	}
	conns := make([][]live, len(engines))
	var nextID core.ConnID
	now := 100.0
	add := func(c int, spec core.ConnSpec, at float64) {
		nextID++
		engines[c].AddConnection(nextID, spec, at)
		conns[c] = append(conns[c], live{nextID, spec.Prev, at})
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for c, e := range engines {
		deg := top.Degree(topology.CellID(c))
		seedHistory(e, deg, 6, func() float64 { return 5 + rng.Float64()*60 })
		for fill := 86 + rng.IntN(10); e.UsedBandwidth() < fill; {
			spec := core.ConnSpec{Min: 1 + 3*rng.IntN(2), Prev: topology.LocalIndex(rng.IntN(deg + 1))}
			if rng.IntN(4) == 0 {
				// An elastic streaming connection: multi-class has
				// something to degrade.
				spec.Max, spec.Class = spec.Min+3, core.ClassStreaming
			}
			add(c, spec, now-rng.Float64()*50)
		}
	}
	for s := 0; s < steps; s++ {
		now += 0.05 + rng.Float64()*0.5
		c := rng.IntN(len(engines))
		e := engines[c]
		deg := top.Degree(topology.CellID(c))
		switch r := rng.IntN(10); {
		case r < 5: // a new call asks for admission
			req := core.Request{Bandwidth: 1 + 3*rng.IntN(2), Class: core.ServiceClass(rng.IntN(2))}
			d := e.AdmitNewRequest(now, req, peers[c])
			trace = append(trace, bit(d.Admitted), uint64(d.BrCalcs), bit(d.Degraded))
			if d.BrCalcs > 1 {
				admissionsWithRecompute++
			}
			if d.Admitted {
				add(c, core.ConnSpec{Min: req.Bandwidth, Prev: topology.Self, Class: req.Class}, now)
			}
		case r < 7: // a connection leaves; its quadruplet is recorded
			if len(conns[c]) == 0 {
				continue
			}
			k := rng.IntN(len(conns[c]))
			l := conns[c][k]
			conns[c] = append(conns[c][:k], conns[c][k+1:]...)
			e.RemoveConnection(l.id)
			e.RecordDeparture(predict.Quadruplet{Event: now, Prev: l.prev, Next: topology.LocalIndex(1 + rng.IntN(deg)), Sojourn: now - l.at})
		case r < 9: // a hand-off arrives; a dropped one moves T_est
			bw := 1 + 3*rng.IntN(2)
			from := topology.LocalIndex(1 + rng.IntN(deg))
			fits := e.AdmitHandOff(bw)
			if fits {
				add(c, core.ConnSpec{Min: bw, Prev: from}, now)
			}
			e.NoteHandOffArrival(now, !fits, peers[c])
		default: // Eq. 6 on its own, as a MsgRecompute handler runs it
			trace = append(trace, math.Float64bits(e.ComputeTargetReservation(now, peers[c])))
		}
		for _, e := range engines {
			used, _, br := e.Snapshot()
			trace = append(trace, uint64(used), math.Float64bits(br), math.Float64bits(e.Test()))
		}
	}
	for _, e := range engines {
		l := e.Ledger()
		trace = append(trace, l.BrCalcs, l.DegradedBrCalcs, l.DegradedAdmissions)
	}
	return trace, admissionsWithRecompute
}

// TestPrefetchDifferential is the change's oracle: the same seeded
// script through three deployments of the same cells — engines calling
// each other in process (service.MeshPeers, no wire at all), the wire
// driven query by query (serialPeers), and the wire driven through
// Prefetch — must leave bit-identical traces: every decision, N_calc,
// degraded flag, B_r, T_est and occupancy, for every policy that
// consults neighbours, on mesh and star.
func TestPrefetchDifferential(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Hex(3, 3, true)
	const steps = 80
	for _, policy := range []string{"AC1", "AC2", "AC3", "multi-class"} {
		for _, shape := range []string{"mesh", "star"} {
			recomputes := 0
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := planeConfig(policy)
				inProcess := service.NewMeshCells(top, func(id topology.CellID, degree int) *core.Engine {
					c := cfg
					c.Degree = degree
					return core.NewEngine(c)
				})
				engines := make([]*core.Engine, len(inProcess))
				peers := make([]core.Peers, len(inProcess))
				for i, c := range inProcess {
					engines[i], peers[i] = c.Engine, c.Peers
				}
				want, n := script(engines, peers, top, seed, steps)
				recomputes += n

				for _, serial := range []bool{true, false} {
					p := newPlane(top, cfg, shape == "star")
					engines, peers := p.cells(serial)
					got, _ := script(engines, peers, top, seed, steps)
					p.close()
					if len(got) != len(want) {
						t.Fatalf("%s %s seed %d serial=%v: trace length %d, in-process %d", policy, shape, seed, serial, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %s seed %d serial=%v: trace diverges from the in-process run at word %d: %#x, want %#x",
								policy, shape, seed, serial, i, got[i], want[i])
						}
					}
				}
			}
			if policy == "AC3" && recomputes == 0 {
				t.Fatalf("AC3 %s: no admission made a neighbour recompute; the script no longer reaches that path", shape)
			}
		}
	}
}

// TestFramesPerDecision is the paper's Fig. 13 on a wire: what one
// admission test costs in frames and bytes beside its N_calc, for each
// scheme on mesh and star (degree 6), pinned — and never more than the
// serial path (what every decision cost before Prefetch) sends for the
// same decision.
func TestFramesPerDecision(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Hex(3, 3, true)
	const d = 6
	cases := []struct {
		policy string
		unable bool // one neighbour appears unable to reserve: AC3 makes it recompute
		ncalc  int
		frames uint64 // mesh, through Prefetch
		serial uint64 // mesh, query by query
	}{
		// One request and one reply per neighbour: Eq. 6 alone.
		{"AC1", false, 1, 2 * d, 2 * d},
		// Every neighbour recomputes (a request, a reply, and its own
		// Eq. 6 fan-out), then this cell's Eq. 6.
		{"AC2", false, 1 + d, d*(2+2*d) + 2*d, d*(2+2*d) + 2*d},
		// The snapshots ride on the Eq. 6 replies; query by query they
		// are a round of their own.
		{"AC3", false, 1, 2 * d, 4 * d},
		{"AC3", true, 2, 2*d + (2 + 2*d), 4*d + (2 + 2*d)},
	}
	for _, tc := range cases {
		for _, star := range []bool{false, true} {
			hops := uint64(1)
			if star {
				hops = 2 // every frame crosses BS→MSC and MSC→BS
			}
			for _, serial := range []bool{false, true} {
				name := fmt.Sprintf("%s/unable=%v/star=%v/serial=%v", tc.policy, tc.unable, star, serial)
				p := newPlane(top, planeConfig(tc.policy), star)
				engines, peers := p.cells(serial)
				for i, e := range engines {
					e.RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
					e.AddConnection(core.ConnID(i+1), core.ConnSpec{Min: 4, Prev: topology.Self}, 0)
				}
				if tc.unable {
					nb, _ := top.FromLocal(0, 2)
					engines[nb].PublishReservation(99) // 4 + 99 > 100
				}
				f0, b0 := p.traffic()
				dec := engines[0].AdmitNew(10, 1, peers[0])
				f1, b1 := p.traffic()
				p.close()

				want := tc.frames
				if serial {
					want = tc.serial
				}
				want *= hops
				if dec.BrCalcs != tc.ncalc || dec.Degraded {
					t.Errorf("%s: decision %+v, want N_calc %d and not degraded", name, dec, tc.ncalc)
				}
				if got := f1 - f0; got != want {
					t.Errorf("%s: %d frames, want %d", name, got, want)
				}
				if got := b1 - b0; got != want*frameSize {
					t.Errorf("%s: %d bytes, want %d", name, got, want*frameSize)
				}
			}
		}
		if tc.frames > tc.serial {
			t.Errorf("%s: the table lets Prefetch send more (%d) than the serial path (%d)", tc.policy, tc.frames, tc.serial)
		}
	}
}

// TestPrefetchedViewValidity pins what the view answers from the
// gathered replies and what it sends to the wire: Eq. 5 at exactly the
// gathered (now, test), each neighbour's first Snapshot, nothing else.
func TestPrefetchedViewValidity(t *testing.T) {
	defer testleak.Check(t)()
	nodes := threeNodeLine(t, "AC3")
	ConnectMesh(nodes)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	sent := func() uint64 {
		return nodes[1].Link(0).Stats().Sent.Load() + nodes[1].Link(2).Stats().Sent.Load()
	}
	pf, ok := nodes[1].Peers().(core.Prefetcher)
	if !ok {
		t.Fatal("BSNode.Peers() does not implement core.Prefetcher")
	}
	v := pf.Prefetch(10, 1)
	if _, again := v.(core.Prefetcher); again {
		t.Fatal("the prefetched view implements core.Prefetcher: ComputeTargetReservation would gather twice")
	}
	if got := sent(); got != 2 {
		t.Fatalf("Prefetch sent %d requests, want one per neighbour", got)
	}
	// Answered from the replies, any number of times, without a frame.
	for i := 0; i < 2; i++ {
		if out, ok := v.OutgoingReservation(1, 10, 1); !ok || out != 4 {
			t.Fatalf("gathered Eq. 5 from cell 0 = %v,%v, want 4,true", out, ok)
		}
	}
	if used, capacity, br, ok := v.Snapshot(2); !ok || used != 1 || capacity != 100 || br != 0 {
		t.Fatalf("gathered snapshot of cell 2 = %d,%d,%v,%v, want 1,100,0,true", used, capacity, br, ok)
	}
	if got := sent(); got != 2 {
		t.Fatalf("answers at the gathered key sent %d further requests", got-2)
	}
	// Anything else is a fresh query.
	nodes[2].Engine().PublishReservation(7)
	if _, _, br, ok := v.Snapshot(2); !ok || br != 7 {
		t.Fatalf("second Snapshot = %v,%v, want the fresh reading 7,true", br, ok)
	}
	if out, ok := v.OutgoingReservation(1, 10, 2); !ok || out != 4 {
		t.Fatalf("Eq. 5 at another window = %v,%v, want 4,true", out, ok)
	}
	if _, ok := v.OutgoingReservation(1, 10.5, 1); !ok {
		t.Fatal("Eq. 5 at another time failed")
	}
	if _, ok := v.MaxSojourn(1, 10); !ok {
		t.Fatal("MaxSojourn through the view failed")
	}
	if _, _, _, ok := v.RecomputeReservation(2, 10); !ok {
		t.Fatal("RecomputeReservation through the view failed")
	}
	// Five requests, and cell 1's reply to the Eq. 5 query that cell 2's
	// recompute sent back at it.
	if got := sent(); got != 2+5+1 {
		t.Fatalf("five fresh queries put %d frames on cell 1's links, want 6", got-2)
	}
}

// TestPrefetchDarkNeighborFailsBoth: a neighbour that stays dark through
// the retry budget is one RemoteErrors, and the view answers ok=false
// for both its Eq. 5 term and its snapshot without asking again — the
// engine's fail-closed paths take over exactly as on the serial path.
func TestPrefetchDarkNeighborFailsBoth(t *testing.T) {
	testleak.CheckCleanup(t) // resilienceNode closes via t.Cleanup
	block := make(chan struct{})
	n, _ := resilienceNode(t, func(Message) Message {
		<-block
		return Message{}
	})
	defer close(block)
	n.SetCallPolicy(CallPolicy{Timeout: 30 * time.Millisecond, MaxAttempts: 2, Backoff: time.Millisecond, JitterSeed: 1})

	v := n.Peers().(core.Prefetcher).Prefetch(0, 1)
	st := n.Link(NodeID(0)).Stats()
	check := func(when string) {
		t.Helper()
		if got := n.RemoteErrors(); got != 1 {
			t.Fatalf("%s: RemoteErrors = %d, want 1 (one exhausted budget)", when, got)
		}
		if to, re, sent := st.Timeouts.Load(), st.Retries.Load(), st.Sent.Load(); to != 2 || re != 1 || sent != 2 {
			t.Fatalf("%s: timeouts %d retries %d sent %d, want 2, 1, 2", when, to, re, sent)
		}
	}
	check("after Prefetch")
	if out, ok := v.OutgoingReservation(1, 0, 1); ok || out != 0 {
		t.Fatalf("Eq. 5 of a dark neighbour = %v,%v, want 0,false", out, ok)
	}
	if used, capacity, br, ok := v.Snapshot(1); ok || used != 0 || capacity != 0 || br != 0 {
		t.Fatalf("snapshot of a dark neighbour = %d,%d,%v,%v, want zeros and false", used, capacity, br, ok)
	}
	check("after both answers")
}

// TestReplyTypeMismatchIsAFailedAttempt: a reply whose type byte was
// flipped in transit (outgoing-resp 0x81 → recompute-resp 0x83; frames
// carry no checksum) arrives under the right sequence number. It must
// count as a failed attempt — retried, fed to the breaker — and its F1
// never read as the Eq. 5 value.
func TestReplyTypeMismatchIsAFailedAttempt(t *testing.T) {
	// neighbor plays cell 0 on a raw connection: it answers every
	// request correctly with F1=7, except that the first reply carries
	// a flipped type byte and F1=99.
	neighbor := func(conn net.Conn) {
		for i := 0; ; i++ {
			req, err := Decode(conn)
			if err != nil {
				return
			}
			resp := Message{Type: req.Type.Response(), Seq: req.Seq, From: req.To, To: req.From, F1: 7}
			if i == 0 {
				resp.Type ^= 0x02
				resp.F1 = 99
			}
			if Encode(conn, resp) != nil {
				return
			}
		}
	}
	mk := func(t *testing.T) *BSNode {
		n := NewBSNode(1, topology.Line(2), planeConfig("AC1"))
		c1, c2 := net.Pipe()
		n.Attach(NodeID(0), c1)
		go neighbor(c2)
		t.Cleanup(func() { n.Close(); c2.Close() })
		return n
	}
	t.Run("retried", func(t *testing.T) {
		testleak.CheckCleanup(t)
		n := mk(t)
		n.SetCallPolicy(CallPolicy{MaxAttempts: 2})
		out, ok := n.Peers().OutgoingReservation(1, 0, 1)
		if !ok || out != 7 {
			t.Fatalf("OutgoingReservation = %v,%v, want the retried answer 7,true", out, ok)
		}
		if re := n.Link(NodeID(0)).Stats().Retries.Load(); re != 1 || n.RemoteErrors() != 0 {
			t.Fatalf("retries %d remote errors %d, want 1, 0", re, n.RemoteErrors())
		}
	})
	t.Run("breaker", func(t *testing.T) {
		testleak.CheckCleanup(t)
		n := mk(t)
		n.SetBreakerConfig(1, time.Hour)
		if out, ok := n.Peers().OutgoingReservation(1, 0, 1); ok {
			t.Fatalf("mistyped reply accepted as Eq. 5 value %v", out)
		}
		if b := n.Link(NodeID(0)).Breaker(); b.State() != BreakerOpen || n.RemoteErrors() != 1 {
			t.Fatalf("breaker %v remote errors %d, want open, 1", b.State(), n.RemoteErrors())
		}
	})
	t.Run("peer", func(t *testing.T) {
		testleak.CheckCleanup(t)
		c1, c2 := net.Pipe()
		p := NewPeer(c1, nil)
		go neighbor(c2)
		t.Cleanup(func() { p.Close(); c2.Close() })
		if _, err := p.Call(Message{Type: MsgOutgoing}); !errors.Is(err, ErrBadReply) {
			t.Fatalf("err = %v, want ErrBadReply", err)
		}
	})
}

// TestConcurrentAC2OverPipes: two adjacent nodes run AC2 admissions at
// each other at once over net.Pipe, the synchronous transport on which a
// pump that served inline, or a parked serve goroutine without its
// busy-link fallback, deadlocks: each node's own fan-out and its
// handling of the other's MsgRecompute put concurrent requests on the
// one link between them. 1,000 rounds must finish and leave no
// goroutine behind.
func TestConcurrentAC2OverPipes(t *testing.T) {
	defer testleak.Check(t)()
	nodes := threeNodeLine(t, "AC2")
	ConnectMesh(nodes)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	const rounds = 1000
	done := make(chan int, 2)
	for _, n := range nodes[:2] {
		n := n
		go func() {
			admitted := 0
			for i := 0; i < rounds; i++ {
				if n.Engine().AdmitNew(10, 1, n.Peers()).Admitted {
					admitted++
				}
			}
			done <- admitted
		}()
	}
	for range nodes[:2] {
		select {
		case admitted := <-done:
			if admitted != rounds {
				t.Errorf("%d of %d admissions into near-empty cells admitted", admitted, rounds)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("concurrent AC2 admissions over net.Pipe deadlocked")
		}
	}
}
