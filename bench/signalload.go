package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/signaling"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// signal-mesh is the `bsnet` mesh shape: sixteen base-station nodes on
// a wrapped 4×4 hex grid (degree 6), every neighbouring pair joined by
// its own TCP connection over the host's loopback interface. The
// benchmark is the one caller: it asks a node's engine for an admission
// decision, which fans out to the neighbours over the wire, and then
// adds or retires connections to hold the cells near their target
// occupancy. No real link is crossed; wire latency is not measured.
const (
	signalRows, signalCols = 4, 4
	signalDecisions        = 2_000
	signalSmokeDecisions   = 300
	signalQuadsPerPair     = 40
	signalTargetBU         = 80
	signalStart            = 100.0 // simulated time of the first decision
	signalStep             = 0.05  // simulated seconds between decisions
)

func signalMesh() *workload {
	return &workload{
		name:  "signal-mesh",
		why:   "admission decisions whose neighbour queries cross the signaling codec, Peer.Call and loopback TCP sockets: signaling does most of the work and core little",
		setup: setupSignal,
	}
}

type liveConn struct {
	id core.ConnID
	bw int
}

type signalInstance struct {
	top       *topology.Topology
	nodes     []*signaling.BSNode
	links     []*signaling.Peer
	peers     []core.Peers // what the caller passes to AdmitNew, per node
	rng       *rand.Rand
	mix       traffic.Mix
	nextID    core.ConnID
	live      [][]liveConn // per node, oldest first
	decisions int
	lat       []float64

	admitted, blocked, degraded uint64
	brCalcs                     uint64
	occSum                      float64

	tr     *tracer
	buf    *spanBuf
	pcalls uint64
	pbusy  int64
}

func setupSignal(e *env, tr *tracer) (instance, error) {
	top := topology.Hex(signalRows, signalCols, true)
	in := &signalInstance{
		top:       top,
		rng:       rand.New(rand.NewPCG(e.seed, 0x7369676e)),
		mix:       traffic.Mix{VoiceRatio: voiceRatio},
		decisions: signalDecisions,
		tr:        tr,
	}
	if e.smoke {
		in.decisions = signalSmokeDecisions
	}
	in.lat = make([]float64, 0, in.decisions)
	pol := core.MustPolicy("AC3")
	if tr != nil {
		tr.nest = true
		in.buf = tr.newBuf()
		pol = tracePolicy(pol, tr, 1)
	}
	n := top.NumCells()
	in.nodes = make([]*signaling.BSNode, n)
	for i := range in.nodes {
		in.nodes[i] = signaling.NewBSNode(topology.CellID(i), top, core.Config{
			Capacity:   100,
			Admission:  pol,
			PHDTarget:  0.01,
			TStart:     1,
			Estimation: predict.StationaryConfig(),
		})
	}
	if err := in.wire(); err != nil {
		in.close()
		return nil, err
	}
	in.peers = make([]core.Peers, n)
	in.live = make([][]liveConn, n)
	pbuf := in.buf
	for i, node := range in.nodes {
		in.peers[i] = node.Peers()
		if tr != nil {
			in.peers[i] = &tracedPeers{inner: in.peers[i], tr: tr, buf: pbuf, calls: &in.pcalls, busyNs: &in.pbusy}
		}
		in.preload(i)
	}
	return in, nil
}

// wire joins every neighbouring pair over loopback TCP, as cmd/bsnet
// does: the higher-numbered node dials, the lower one accepts.
func (in *signalInstance) wire() error {
	for a := range in.nodes {
		for _, nb := range in.top.Neighbors(topology.CellID(a)) {
			if int(nb) <= a {
				continue
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			type handshake struct {
				remote signaling.NodeID
				conn   net.Conn
				err    error
			}
			acc := make(chan handshake, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					acc <- handshake{err: err}
					return
				}
				remote, err := signaling.AcceptHello(conn)
				acc <- handshake{remote: remote, conn: conn, err: err}
			}()
			conn, err := signaling.DialTCP(ln.Addr().String(), signaling.NodeID(nb))
			if err != nil {
				ln.Close()
				<-acc
				return err
			}
			in.links = append(in.links, in.nodes[nb].Attach(signaling.NodeID(a), conn))
			h := <-acc
			ln.Close()
			if h.err != nil {
				return h.err
			}
			in.links = append(in.links, in.nodes[a].Attach(h.remote, h.conn))
		}
	}
	return nil
}

// preload gives node i a full hand-off history (signalQuadsPerPair
// quadruplets for every (prev, next) pair) and fills its cell to the
// target occupancy, so reservations are non-trivial from the first
// decision.
func (in *signalInstance) preload(i int) {
	eng := in.nodes[i].Engine()
	deg := in.top.Degree(topology.CellID(i))
	ev := 0.0
	for prev := topology.LocalIndex(0); int(prev) <= deg; prev++ {
		for next := topology.LocalIndex(1); int(next) <= deg; next++ {
			for k := 0; k < signalQuadsPerPair; k++ {
				eng.RecordDeparture(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: 20 + in.rng.Float64()*300})
				ev += 0.001
			}
		}
	}
	for used := 0; used < signalTargetBU; {
		bw := in.mix.Sample(in.rng).Bandwidth
		in.add(i, bw, topology.LocalIndex(in.rng.IntN(deg+1)), 60+in.rng.Float64()*30)
		used += bw
	}
}

func (in *signalInstance) add(node, bw int, prev topology.LocalIndex, now float64) {
	in.nextID++
	in.nodes[node].Engine().AddConnection(in.nextID, core.ConnSpec{Min: bw, Prev: prev}, now)
	in.live[node] = append(in.live[node], liveConn{id: in.nextID, bw: bw})
}

func (in *signalInstance) run() {
	var runSpan spanID
	if in.tr != nil {
		runSpan = in.buf.begin(spanRun, in.tr.now(), 0, 0)
	}
	for i := 0; i < in.decisions; i++ {
		now := signalStart + float64(i)*signalStep
		node := in.rng.IntN(len(in.nodes))
		bw := in.mix.Sample(in.rng).Bandwidth
		eng := in.nodes[node].Engine()
		if in.tr != nil {
			in.tr.op = int64(i)
			in.tr.parent = in.buf.begin(spanDecision, in.tr.now(), runSpan, int64(i))
		}
		t0 := wall.Now()
		d := eng.AdmitNew(now, bw, in.peers[node])
		in.lat = append(in.lat, float64(wall.Since(t0).Nanoseconds())/1e3)
		if in.tr != nil {
			in.buf.end(in.tr.parent, in.tr.now())
		}
		in.brCalcs += uint64(d.BrCalcs)
		if d.Degraded {
			in.degraded++
		}
		if d.Admitted {
			in.admitted++
			in.add(node, bw, topology.Self, now)
		} else {
			in.blocked++
		}
		// Hold occupancy: calls end, oldest first, while the cell is
		// above its target.
		used := eng.UsedBandwidth()
		for used > signalTargetBU && len(in.live[node]) > 0 {
			old := in.live[node][0]
			in.live[node] = in.live[node][1:]
			eng.RemoveConnection(old.id)
			used -= old.bw
		}
		in.occSum += float64(used)
	}
	if in.tr != nil {
		in.buf.end(runSpan, in.tr.now())
	}
}

// close tears down every link; each node's read pumps end with their
// connections.
func (in *signalInstance) close() {
	for _, n := range in.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, p := range in.links {
		<-p.Done()
	}
}

func (in *signalInstance) finish(wallS float64) round {
	r := round{lat: in.lat, layer: map[string]float64{}}
	r.ops = uint64(in.decisions)
	r.attempted = r.ops
	var remoteErrs, frames, bytes, retries, timeouts uint64
	engines := make([]*core.Engine, len(in.nodes))
	for i, n := range in.nodes {
		remoteErrs += n.RemoteErrors()
		engines[i] = n.Engine()
	}
	for _, p := range in.links {
		st := p.Stats()
		frames += st.Sent.Load()
		bytes += st.BytesSent.Load()
		retries += st.Retries.Load()
		timeouts += st.Timeouts.Load()
	}
	r.failed = in.degraded + remoteErrs
	if remoteErrs != 0 {
		r.failf("%d remote errors on a fault-free mesh", remoteErrs)
	}
	if err := auditEngines(engines, signalStart+float64(in.decisions)*signalStep); err != nil {
		r.failf("%v", err)
	}

	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d\n", in.admitted, in.blocked, in.degraded, in.brCalcs)
	for _, e := range engines {
		fmt.Fprintf(h, "%d ", e.UsedBandwidth())
	}
	r.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	occupancy := in.occSum / float64(in.decisions)
	framesPer := float64(frames) / float64(in.decisions)
	r.calib = append(r.calib, fmt.Sprintf("%d decisions (%d admitted, %d blocked), mean occupancy %.1f BU, %.2f frames per decision, digest %s",
		in.decisions, in.admitted, in.blocked, occupancy, framesPer, r.digest))
	// Every decision must reach the neighbours (≥ one request and reply
	// per neighbour), into cells that are neither empty nor full.
	if occupancy < 60 || occupancy > 95 || framesPer < 12 {
		r.failf("calibration: mean occupancy %.1f BU, %.2f frames per decision", occupancy, framesPer)
	}
	if in.tr == nil {
		return r
	}

	policyMetrics(policyStats{}, collectPolicyStats(engines), wallS, r.layer)
	engineCounters(engines, signalStart, r.layer)
	// Per decision: its own span minus the Peers spans filed under it.
	rpcNs := make([]int64, in.decisions)
	var rpcUs []float64
	var decisionNs int64
	self := make([]float64, 0, in.decisions)
	spans := in.buf.spans
	for _, s := range spans {
		if s.kind.peers() {
			rpcNs[s.op] += s.end - s.start
			rpcUs = append(rpcUs, float64(s.end-s.start)/1e3)
		}
	}
	for _, s := range spans {
		if s.kind == spanDecision {
			decisionNs += s.end - s.start
			self = append(self, float64(s.end-s.start-rpcNs[s.op])/1e3)
		}
	}
	sort.Float64s(self)
	sort.Float64s(rpcUs)
	r.layer["core.admit_self_us_p50"] = percentile(self, 50)
	r.layer["signaling.rpcs_per_decision"] = float64(in.pcalls) / float64(in.decisions)
	r.layer["signaling.frames_per_decision"] = framesPer
	r.layer["signaling.bytes_per_decision"] = float64(bytes) / float64(in.decisions)
	r.layer["signaling.rpc_us_p50"] = percentile(rpcUs, 50)
	r.layer["signaling.rpc_us_p99"] = percentile(rpcUs, 99)
	share := ratio(float64(in.pbusy), float64(decisionNs))
	r.layer["signaling.rpc_share"] = share
	// The workload exists to load signaling: if the neighbour queries
	// stop being most of a decision, it no longer does.
	if share < 0.7 {
		r.failf("calibration: neighbour queries are %.2f of decision time, under 0.7", share)
	}
	r.layer["signaling.retries"] = float64(retries)
	r.layer["signaling.timeouts"] = float64(timeouts)
	r.layer["signaling.remote_errors"] = float64(remoteErrs)
	return r
}
