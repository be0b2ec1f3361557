package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"path/filepath"
	"runtime"
	"sort"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/signaling"
	"cellqos/internal/sim"
	"cellqos/internal/sim/shard"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// perLayer lists the metrics of single layers, named <module>.<metric>.
// Source D (layer drive) metrics are measured by this file on every
// traced invocation and do not depend on the workload; the others come
// from the workload's traced round (T) or from public counters read
// after it (C) and read 0 on a workload that does not pass through the
// layer. README.md says what each should move.
var perLayer = []metricDef{
	// sim (D)
	{"sim.event_ns_q1k", "ns", "lower"},
	{"sim.event_ns_q100k", "ns", "lower"},
	{"sim.cancel_ns", "ns", "lower"},
	{"sim.allocs_per_event", "1/op", "lower"},
	// sim/shard (D; scaling_2 is T on metro-async)
	{"sim.shard.event_ns", "ns", "lower"},
	{"sim.shard.send_ns", "ns", "lower"},
	{"sim.shard.barrier_us", "us", "lower"},
	{"sim.shard.scaling_2", "x", "higher"},
	// topology (D)
	{"topology.hex_build_ms", "ms", "lower"},
	{"topology.partition_ms", "ms", "lower"},
	// mobility (T)
	{"mobility.paths", "count", "lower"},
	{"mobility.path_ns", "ns", "lower"},
	// traffic (D, T)
	{"traffic.sample_ns", "ns", "lower"},
	{"traffic.schedule_calls", "count", "lower"},
	// predict (D; recorded/evicted are C)
	{"predict.record_ns", "ns", "lower"},
	{"predict.handoff_weight_ns", "ns", "lower"},
	{"predict.survivor_weight_ns", "ns", "lower"},
	{"predict.ensure_current_ns", "ns", "lower"},
	{"predict.write_to_us", "us", "lower"},
	{"predict.read_from_us", "us", "lower"},
	{"predict.recorded", "count", "lower"},
	{"predict.evicted", "count", "lower"},
	// core (D)
	{"core.admit_new_ns_p50", "ns", "lower"},
	{"core.admit_new_ns_p99", "ns", "lower"},
	{"core.admit_after_record_ns_p50", "ns", "lower"},
	{"core.admit_after_record_ns_p99", "ns", "lower"},
	{"core.outgoing_reservation_ns", "ns", "lower"},
	{"core.add_remove_ns", "ns", "lower"},
	{"core.handoff_admit_ns", "ns", "lower"},
	{"core.allocs_per_admit", "1/op", "lower"},
	// core (T, C)
	{"core.decide_new_calls", "count", "lower"},
	{"core.decide_new_busy_s", "s", "lower"},
	{"core.decide_new_share", "share", "lower"},
	{"core.decide_handoff_calls", "count", "lower"},
	{"core.decide_handoff_busy_s", "s", "lower"},
	{"core.br_calcs", "count", "lower"},
	{"core.eq5_rebuilds", "count", "lower"},
	{"core.eq5_advances", "count", "lower"},
	{"core.eq5_refreshes", "count", "lower"},
	{"core.eq5_adoptions", "count", "higher"},
	{"core.eq5_hit_ratio", "share", "higher"},
	{"core.admit_self_us_p50", "us", "lower"},
	// cellnet (T, C)
	{"cellnet.new_ms", "ms", "lower"},
	{"cellnet.window_ms_p50", "ms", "lower"},
	{"cellnet.window_ms_p99", "ms", "lower"},
	{"cellnet.self_share", "share", "lower"},
	{"cellnet.engine_upkeep_est_share", "share", "lower"},
	{"cellnet.exchanges", "count", "lower"},
	{"cellnet.p_cb", "prob", "lower"},
	{"cellnet.p_hd", "prob", "lower"},
	// signaling (D)
	{"signaling.encode_ns", "ns", "lower"},
	{"signaling.decode_ns", "ns", "lower"},
	{"signaling.allocs_per_frame", "1/op", "lower"},
	{"signaling.call_rtt_us_pipe_p50", "us", "lower"},
	{"signaling.call_rtt_us_pipe_p99", "us", "lower"},
	{"signaling.call_rtt_us_tcp_p50", "us", "lower"},
	{"signaling.call_rtt_us_tcp_p99", "us", "lower"},
	// signaling (T, C)
	{"signaling.rpcs_per_decision", "1/op", "lower"},
	{"signaling.frames_per_decision", "1/op", "lower"},
	{"signaling.bytes_per_decision", "B/op", "lower"},
	{"signaling.rpc_us_p50", "us", "lower"},
	{"signaling.rpc_us_p99", "us", "lower"},
	{"signaling.rpc_share", "share", "lower"},
	{"signaling.retries", "count", "lower"},
	{"signaling.timeouts", "count", "lower"},
	{"signaling.remote_errors", "count", "lower"},
	// service (T, C on serve-mesh; the rest D)
	{"service.handoff_event_us_p50", "us", "lower"},
	{"service.handoff_event_us_p99", "us", "lower"},
	{"service.peers_share", "share", "lower"},
	{"service.checkpoints", "count", "lower"},
	{"service.snapshot_bytes", "B", "lower"},
	{"service.snapshot_encode_us", "us", "lower"},
	{"service.snapshot_decode_us", "us", "lower"},
	{"service.checkpoint_save_ms_p50", "ms", "lower"},
	{"service.checkpoint_load_ms", "ms", "lower"},
	{"service.restore_ms", "ms", "lower"},
	{"service.gate_allow_ns", "ns", "lower"},
	// the Go runtime under the traced round, and the tracing itself
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.heap_live_mb", "MB", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

// layerDrives calls each layer's public API directly, on inputs shaped
// like the workloads', and returns the source-D metrics. Sizes are
// fixed (they do not follow -seconds): together the drives take a few
// seconds.
func layerDrives(e *env) (map[string]float64, error) {
	m := map[string]float64{}
	scale := 1
	if e.smoke {
		scale = 10
	}
	driveSim(m, scale)
	driveShard(m, scale)
	driveTopology(m, e.smoke)
	driveTraffic(m, scale)
	drivePredict(m, scale)
	driveCore(m, scale)
	if err := driveSignaling(m, scale); err != nil {
		return nil, fmt.Errorf("signaling drive: %w", err)
	}
	if err := driveService(m, e, scale); err != nil {
		return nil, fmt.Errorf("service drive: %w", err)
	}
	return m, nil
}

// perOpNs times fn and returns host nanoseconds per op.
func perOpNs(ops int, fn func()) float64 {
	t0 := wall.Now()
	fn()
	return float64(wall.Since(t0).Nanoseconds()) / float64(ops)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sinkF keeps query results alive so the compiler cannot drop the calls.
var sinkF float64

// ---------------------------------------------------------------------
// sim: the single-heap kernel

// kernelChurn fires `events` self-rescheduling events on a queue holding
// `pending` of them — the ring's queue depth at 1k, the metro's at 100k.
func kernelChurn(pending, events int) (nsPerEvent, allocsPerEvent float64) {
	s := sim.New()
	rng := rand.New(rand.NewPCG(1, uint64(pending)))
	left := events
	var tick sim.Event
	tick = func(sc sim.Scheduler) {
		left--
		if left == 0 {
			sc.Stop()
			return
		}
		sc.MustAfter(0.5+rng.Float64(), tick)
	}
	for i := 0; i < pending; i++ {
		s.MustAfter(rng.Float64(), tick)
	}
	a0 := mallocs()
	ns := perOpNs(events, func() { s.Run() })
	return ns, float64(mallocs()-a0) / float64(events)
}

func driveSim(m map[string]float64, scale int) {
	events := 400_000 / scale
	m["sim.event_ns_q1k"], m["sim.allocs_per_event"] = kernelChurn(1_000, events)
	m["sim.event_ns_q100k"], _ = kernelChurn(100_000, events)

	s := sim.New()
	n := 100_000 / scale
	handles := make([]sim.Handle, n)
	for i := range handles {
		handles[i] = s.MustAfter(float64(i%977), func(sim.Scheduler) {})
	}
	m["sim.cancel_ns"] = perOpNs(n, func() {
		for _, h := range handles {
			s.Cancel(h)
		}
	})
}

// ---------------------------------------------------------------------
// sim/shard: two shards, lookahead 0.25 s, as metro-async runs them

const driveLookahead = 0.25

func driveShard(m map[string]float64, scale int) {
	// Local events only: each shard churns its own chains.
	k := shard.New(shard.Config{Shards: 2, Lookahead: driveLookahead})
	chains := 5_000
	for sh := 0; sh < 2; sh++ {
		rng := rand.New(rand.NewPCG(2, uint64(sh)))
		var tick sim.Event
		tick = func(sc sim.Scheduler) { sc.MustAfter(0.5+rng.Float64(), tick) }
		for i := 0; i < chains; i++ {
			k.Shard(sh).MustAfter(rng.Float64(), tick)
		}
	}
	horizon := 40.0 / float64(scale)
	t0 := wall.Now()
	k.RunUntil(horizon)
	m["sim.shard.event_ns"] = float64(wall.Since(t0).Nanoseconds()) / float64(k.Fired())

	// Every event sends one message to the other shard, one latency
	// ahead; its delivery fires the next send.
	k = shard.New(shard.Config{Shards: 2, Lookahead: driveLookahead})
	var seq [2]uint64
	var pong sim.Event
	pong = func(sc sim.Scheduler) {
		sh := sc.(*shard.Shard)
		seq[sh.Index()]++
		sh.Send(1-sh.Index(), sh.Now()+k.Lookahead(), uint64(sh.Index())<<40|seq[sh.Index()], pong)
	}
	for sh := 0; sh < 2; sh++ {
		for i := 0; i < chains; i++ {
			k.Shard(sh).MustAfter(float64(i)/float64(chains)*driveLookahead, pong)
		}
	}
	t0 = wall.Now()
	k.RunUntil(horizon / 4)
	m["sim.shard.send_ns"] = float64(wall.Since(t0).Nanoseconds()) / float64(k.Fired())

	// Empty windows: what one barrier (two goroutines, a join, an empty
	// delivery) costs by itself.
	k = shard.New(shard.Config{Shards: 2, Lookahead: driveLookahead})
	windows := 20_000 / scale
	t0 = wall.Now()
	k.RunUntil(float64(windows) * driveLookahead)
	m["sim.shard.barrier_us"] = float64(wall.Since(t0).Nanoseconds()) / 1e3 / float64(windows)
}

// ---------------------------------------------------------------------
// topology

func driveTopology(m map[string]float64, smoke bool) {
	rows := 100
	if smoke {
		rows = 30
	}
	var build, part []float64
	for i := 0; i < 3; i++ {
		t0 := wall.Now()
		top := topology.Hex(rows, rows, true)
		build = append(build, since(t0)*1e3)
		t0 = wall.Now()
		p := topology.NewPartition(top, 2)
		part = append(part, since(t0)*1e3)
		sinkF += float64(p.NumShards())
	}
	m["topology.hex_build_ms"] = median(build)
	m["topology.partition_ms"] = median(part)
}

// ---------------------------------------------------------------------
// traffic

func driveTraffic(m map[string]float64, scale int) {
	rng := rand.New(rand.NewPCG(3, 3))
	mix := traffic.Mix{VoiceRatio: voiceRatio}
	n := 2_000_000 / scale
	bw := 0
	m["traffic.sample_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			bw += mix.Sample(rng).Bandwidth
		}
	})
	sinkF += float64(bw)
}

// ---------------------------------------------------------------------
// predict: one estimator of a degree-6 cell, loaded as the repo's
// admission benchmark loads it (40 quadruplets per (prev, next) pair)

const driveDegree = 6

func loadedEstimator() (*predict.Estimator, float64) {
	est := predict.New(predict.StationaryConfig())
	ev := 0.0
	for prev := topology.LocalIndex(0); int(prev) <= driveDegree; prev++ {
		for next := topology.LocalIndex(1); int(next) <= driveDegree; next++ {
			for k := 0; k < 40; k++ {
				soj := 5 + float64((k*7+int(prev)*3+int(next))%120)
				est.Record(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: soj})
				ev += 0.01
			}
		}
	}
	return est, ev
}

func drivePredict(m map[string]float64, scale int) {
	est, ev := loadedEstimator()
	n := 200_000 / scale
	var gens uint64
	m["predict.ensure_current_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			gens += est.EnsureCurrent(ev)
		}
	})
	survivors, weights := 0.0, 0.0
	m["predict.survivor_weight_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			survivors += est.SurvivorWeight(ev, topology.LocalIndex(i%(driveDegree+1)), float64(i%100))
		}
	})
	m["predict.handoff_weight_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			weights += est.HandOffWeight(ev, topology.LocalIndex(i%(driveDegree+1)), topology.LocalIndex(1+i%driveDegree), float64(i%100), 4)
		}
	})
	sinkF += survivors + weights + float64(gens)

	var buf bytes.Buffer
	const reps = 50
	m["predict.write_to_us"] = perOpNs(reps, func() {
		for i := 0; i < reps; i++ {
			buf.Reset()
			if _, err := est.WriteTo(&buf); err != nil {
				panic(err) // a bytes.Buffer does not fail
			}
		}
	}) / 1e3
	data := buf.Bytes()
	m["predict.read_from_us"] = perOpNs(reps, func() {
		for i := 0; i < reps; i++ {
			fresh := predict.New(predict.StationaryConfig())
			if _, err := fresh.ReadFrom(bytes.NewReader(data)); err != nil {
				panic(err) // the bytes WriteTo just produced
			}
		}
	}) / 1e3

	// Record last: it changes the history the queries above ran on. Every
	// pair fills to N_quad and then evicts, as on a long run.
	rng := rand.New(rand.NewPCG(4, 4))
	m["predict.record_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			est.Record(predict.Quadruplet{
				Event:   ev,
				Prev:    topology.LocalIndex(rng.IntN(driveDegree + 1)),
				Next:    topology.LocalIndex(1 + rng.IntN(driveDegree)),
				Sojourn: 5 + rng.Float64()*120,
			})
			ev += 0.01
		}
	})
}

// ---------------------------------------------------------------------
// core: the BENCH_admission cluster (twelve degree-6 engines in a
// circulant graph, 256 connections per cell, AC1)

const (
	clusterCells = 12
	clusterConns = 256
	clusterStart = 1000.0
)

var clusterOffsets = [driveDegree]int{1, -1, 2, -2, 3, -3}

type cluster struct {
	engines []*core.Engine
	peers   []*clusterPeers
}

type clusterPeers struct {
	cl   *cluster
	self int
}

func (p *clusterPeers) neighbor(li topology.LocalIndex) int {
	return ((p.self+clusterOffsets[li-1])%clusterCells + clusterCells) % clusterCells
}

// toward is this cell's local index as seen from neighbor li: offsets
// come in ± pairs, so flipping the low bit flips the direction.
func toward(li topology.LocalIndex) topology.LocalIndex {
	return topology.LocalIndex((int(li)-1)^1) + 1
}

func (p *clusterPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	return p.cl.engines[p.neighbor(li)].OutgoingReservation(now, toward(li), test), true
}

func (p *clusterPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	nb := p.cl.engines[p.neighbor(li)]
	return nb.UsedBandwidth(), nb.Capacity(), nb.LastTargetReservation(), true
}

func (p *clusterPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	id := p.neighbor(li)
	nb := p.cl.engines[id]
	br := nb.ComputeTargetReservation(now, p.cl.peers[id])
	return nb.UsedBandwidth(), nb.Capacity(), br, true
}

func (p *clusterPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	return p.cl.engines[p.neighbor(li)].MaxSojourn(now), true
}

func newCluster() *cluster {
	cfg := core.Config{
		Capacity:   2*clusterConns + 64,
		Degree:     driveDegree,
		Admission:  core.MustPolicy("AC1"),
		PHDTarget:  0.01,
		TStart:     4,
		Estimation: predict.StationaryConfig(),
	}
	cl := &cluster{}
	for c := 0; c < clusterCells; c++ {
		e := core.NewEngine(cfg)
		ev := 0.0
		for prev := topology.LocalIndex(0); int(prev) <= driveDegree; prev++ {
			for next := topology.LocalIndex(1); int(next) <= driveDegree; next++ {
				for k := 0; k < 40; k++ {
					soj := 5 + float64((k*7+int(prev)*3+int(next))%120)
					e.RecordDeparture(predict.Quadruplet{Event: ev, Prev: prev, Next: next, Sojourn: soj})
					ev += 0.01
				}
			}
		}
		for j := 0; j < clusterConns; j++ {
			id := core.ConnID(c)<<32 | core.ConnID(j+1)
			e.AddConnection(id, core.ConnSpec{Min: 1, Prev: topology.LocalIndex(j % (driveDegree + 1))}, clusterStart-float64(j%90))
		}
		cl.engines = append(cl.engines, e)
		cl.peers = append(cl.peers, &clusterPeers{cl: cl, self: c})
	}
	return cl
}

// admitLoop is the BENCH_admission loop: bursts of eight requests share
// a timestamp, round-robin over the cells; four benchmark-added
// connections per cell stay live. The first warm operations are not
// sampled: the cluster's preloaded connections all cross their integer
// sojourn breakpoints on whole seconds until they age out (about 4,000
// operations), which the repo's benchmark dilutes over some 300,000
// operations and a shorter drive cannot. With record set, each sampled
// admission is preceded by one departure recorded on the cell — what
// serve-mesh does three times between admissions.
func admitLoop(warm, n int, record bool) (p50, p99, allocsPerOp float64) {
	cl := newCluster()
	now := clusterStart
	nextID := core.ConnID(1) << 40
	var live [clusterCells][]core.ConnID
	durs := make([]float64, 0, n)
	rng := rand.New(rand.NewPCG(5, 5))
	var a0 uint64
	for i := 0; i < warm+n; i++ {
		c := i % clusterCells
		e := cl.engines[c]
		if i == warm {
			a0 = mallocs()
		}
		if record && i >= warm {
			e.RecordDeparture(predict.Quadruplet{
				Event:   now,
				Prev:    topology.LocalIndex(rng.IntN(driveDegree + 1)),
				Next:    topology.LocalIndex(1 + rng.IntN(driveDegree)),
				Sojourn: 5 + rng.Float64()*120,
			})
		}
		t0 := wall.Now()
		d := e.AdmitNew(now, 1, cl.peers[c])
		if d.Admitted {
			if len(live[c]) == 4 {
				e.RemoveConnection(live[c][0])
				live[c] = append(live[c][:0], live[c][1:]...)
			}
			e.AddConnection(nextID, core.ConnSpec{Min: 1, Prev: topology.Self}, now)
			live[c] = append(live[c], nextID)
			nextID++
		}
		if i >= warm {
			durs = append(durs, float64(wall.Since(t0).Nanoseconds()))
		}
		if (i+1)%8 == 0 {
			now += 0.25
		}
	}
	allocsPerOp = float64(mallocs()-a0) / float64(n)
	sort.Float64s(durs)
	return percentile(durs, 50), percentile(durs, 99), allocsPerOp
}

func driveCore(m map[string]float64, scale int) {
	const warm = 6_000
	n := 30_000 / scale
	m["core.admit_new_ns_p50"], m["core.admit_new_ns_p99"], m["core.allocs_per_admit"] = admitLoop(warm, 4*n, false)
	m["core.admit_after_record_ns_p50"], m["core.admit_after_record_ns_p99"], _ = admitLoop(warm, n/10, true)

	cl := newCluster()
	e := cl.engines[0]
	q := 300_000 / scale
	sum := 0.0
	m["core.outgoing_reservation_ns"] = perOpNs(q, func() {
		for i := 0; i < q; i++ {
			sum += e.OutgoingReservation(clusterStart, topology.LocalIndex(i%driveDegree)+1, 4)
		}
	})
	sinkF += sum
	id := core.ConnID(1) << 41
	m["core.add_remove_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			e.AddConnection(id, core.ConnSpec{Min: 1, Prev: topology.LocalIndex(i % (driveDegree + 1))}, clusterStart)
			e.RemoveConnection(id)
		}
	})
	admitted := 0
	m["core.handoff_admit_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			if e.AdmitHandOffRequest(clusterStart, core.Request{Bandwidth: 1}, cl.peers[0]).Admitted {
				admitted++
			}
			e.NoteHandOffArrival(clusterStart, false, cl.peers[0])
		}
	})
	sinkF += float64(admitted)
}

// ---------------------------------------------------------------------
// signaling: the frame codec, and Peer.Call against a trivial handler

func callRTT(a, b net.Conn, calls int) (p50, p99 float64, err error) {
	echo := func(req signaling.Message) signaling.Message { return signaling.Message{F1: req.Now} }
	server := signaling.NewPeer(b, echo)
	client := signaling.NewPeer(a, nil)
	defer func() {
		client.Close()
		server.Close()
		<-client.Done()
		<-server.Done()
	}()
	durs := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := wall.Now()
		if _, err := client.Call(signaling.Message{Type: signaling.MsgMaxSojourn, Now: float64(i)}); err != nil {
			return 0, 0, err
		}
		durs = append(durs, float64(wall.Since(t0).Nanoseconds())/1e3)
	}
	sort.Float64s(durs)
	return percentile(durs, 50), percentile(durs, 99), nil
}

func loopbackPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-acc
		return nil, nil, err
	}
	b := <-acc
	if b.err != nil {
		a.Close()
		return nil, nil, b.err
	}
	return a, b.conn, nil
}

func driveSignaling(m map[string]float64, scale int) error {
	n := 500_000 / scale
	msg := signaling.Message{Type: signaling.MsgOutgoing, Seq: 7, From: 1, To: 2, Now: 100.5, Test: 4, F1: 1.25, U1: 80, U2: 100}
	var buf bytes.Buffer
	buf.Grow(64 * n)
	a0 := mallocs()
	var err error
	m["signaling.encode_ns"] = perOpNs(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = signaling.Encode(&buf, msg)
		}
	})
	if err != nil {
		return err
	}
	m["signaling.decode_ns"] = perOpNs(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = signaling.Decode(&buf)
		}
	})
	if err != nil {
		return err
	}
	m["signaling.allocs_per_frame"] = float64(mallocs()-a0) / float64(n)

	calls := 5_000 / scale
	pa, pb := net.Pipe()
	if m["signaling.call_rtt_us_pipe_p50"], m["signaling.call_rtt_us_pipe_p99"], err = callRTT(pa, pb, calls); err != nil {
		return err
	}
	ta, tb, err := loopbackPair()
	if err != nil {
		return err
	}
	m["signaling.call_rtt_us_tcp_p50"], m["signaling.call_rtt_us_tcp_p99"], err = callRTT(ta, tb, calls)
	return err
}

// ---------------------------------------------------------------------
// service: snapshot codec, checkpoint files, restart, overload gate —
// on the serve-mesh cell set with every estimator pair full

func driveService(m map[string]float64, e *env, scale int) error {
	newCells := func() []service.Cell {
		return serveCellsFor(core.MustPolicy("AC3"))
	}
	cells := newCells()
	rng := rand.New(rand.NewPCG(6, 6))
	ev := 0.0
	for _, c := range cells {
		deg := c.Engine.Config().Degree
		for prev := 0; prev <= deg; prev++ {
			for next := 1; next <= deg; next++ {
				for k := 0; k < 100; k++ {
					c.Engine.RecordDeparture(predict.Quadruplet{Event: ev, Prev: topology.LocalIndex(prev), Next: topology.LocalIndex(next), Sojourn: 20 + rng.Float64()*300})
					ev += 0.01
				}
			}
		}
	}
	// A server's final flush is the one public way to cut a snapshot of
	// these cells: serve zero-cost (one event), keep the file.
	dir := filepath.Join(e.tmp, "drive-state")
	ck, err := service.NewCheckpointer(dir)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{Cells: cells, Checkpointer: ck, Seed: 1})
	srv.SetTime(service.NewStepSource(ev, serveStep))
	if rep := srv.Serve(1, nil); rep.ExitCode != service.ExitClean {
		return fmt.Errorf("snapshot serve exited %d: %s", rep.ExitCode, rep.Err)
	}

	reps := 40 / min(scale, 4)
	var loads []float64
	var snap *service.Snapshot
	for i := 0; i < reps; i++ {
		t0 := wall.Now()
		s, _, err := ck.Load()
		if err != nil {
			return err
		}
		loads = append(loads, since(t0)*1e3)
		snap = s
	}
	m["service.checkpoint_load_ms"] = median(loads)
	var frame []byte
	m["service.snapshot_encode_us"] = perOpNs(reps, func() {
		for i := 0; i < reps; i++ {
			frame = snap.Encode()
		}
	}) / 1e3
	m["service.snapshot_bytes"] = float64(len(frame))
	m["service.snapshot_decode_us"] = perOpNs(reps, func() {
		for i := 0; i < reps && err == nil; i++ {
			_, err = service.DecodeSnapshot(frame)
		}
	}) / 1e3
	if err != nil {
		return err
	}
	var saves []float64
	for i := 0; i < reps; i++ {
		t0 := wall.Now()
		if err := ck.Save(snap); err != nil {
			return err
		}
		saves = append(saves, since(t0)*1e3)
	}
	m["service.checkpoint_save_ms_p50"] = median(saves)

	var restores []float64
	for i := 0; i < reps; i++ {
		rck, err := service.NewCheckpointer(dir)
		if err != nil {
			return err
		}
		t0 := wall.Now()
		s := service.New(service.Config{Cells: newCells(), Checkpointer: rck, Seed: 1, Audit: true})
		if _, err := s.Restore(); err != nil {
			return err
		}
		restores = append(restores, since(t0)*1e3)
	}
	m["service.restore_ms"] = median(restores)

	gate := service.NewGate(math.MaxFloat64/4, 1e9, nil)
	n := 500_000 / scale
	allowed := 0
	m["service.gate_allow_ns"] = perOpNs(n, func() {
		for i := 0; i < n; i++ {
			if gate.Allow() {
				allowed++
			}
		}
	})
	sinkF += float64(allowed)
	return nil
}
