// Command bsnet demonstrates the distributed signaling deployment: one
// process hosts a set of base-station nodes that talk to each other over
// real loopback TCP connections (full mesh, Fig. 1(b)) or through a
// Mobile Switching Center relay (star, Fig. 1(a)), and drives admission
// tests through the wire protocol.
//
// Usage:
//
//	bsnet [-cells 10] [-mode mesh|star] [-requests 200] [-load 200] [-audit]
//	bsnet -fault-drop 0.15 -call-timeout 25ms -audit
//	bsnet -fault-partition 0 -fault-fallback guard -breaker-threshold 3
//	bsnet -serve -state-dir /var/lib/bsnet -checkpoint-every 5s -audit
//
// With -serve the process becomes a long-running admission server
// (internal/service): the drive loop runs until SIGINT/SIGTERM (or for
// -serve-events events), periodically checkpointing every estimator's
// hand-off history into -state-dir so a crashed process resumes where
// it left off, and draining in-flight admissions before exiting. The
// exit code distinguishes a clean drain (0) from a failed shutdown (1)
// and a degraded run (3); see DESIGN.md §15.
//
// With -audit every base station's bandwidth ledger is verified against
// the paper's conservation invariants (internal/audit) after the drive;
// a violation fails the run with a structured diagnostic.
//
// The -fault-* flags route every BS-side connection through the
// internal/faults injector (seedable frame drop, corruption, delay, and
// one-way partitions), and the -call-*/-breaker-* flags configure the
// resilience layer that survives it: per-attempt deadlines with bounded
// retry, and per-link circuit breakers. A faulted run reports the
// injected-fault and degraded-mode counters after the drive.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"sort"
	"time"

	"cellqos/internal/audit"
	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/faults"
	"cellqos/internal/predict"
	"cellqos/internal/signaling"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// CLI in-process: args are the command-line arguments (without the
// program name) and the exit status is returned instead of calling
// os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bsnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cells    = fs.Int("cells", 10, "number of cells in the ring")
		mode     = fs.String("mode", "mesh", "signaling topology: mesh|star")
		requests = fs.Int("requests", 200, "admission requests to drive")
		load     = fs.Float64("load", 200, "offered load used to pre-populate cells")
		seed     = fs.Uint64("seed", 1, "RNG seed")
		doAudit  = fs.Bool("audit", false, "verify every BS's bandwidth ledger after the drive")

		faultDrop      = fs.Float64("fault-drop", 0, "per-frame drop probability on every BS link")
		faultCorrupt   = fs.Float64("fault-corrupt", 0, "per-frame bit-flip probability on every BS link")
		faultDelay     = fs.Duration("fault-delay", 0, "fixed per-frame write delay on every BS link")
		faultSeed      = fs.Uint64("fault-seed", 1, "fault-injection RNG seed (per-link streams derive from it)")
		faultPartition = fs.Int("fault-partition", -1, "black-hole this cell's outbound frames for the whole drive (-1 = none)")
		faultFallback  = fs.String("fault-fallback", "decay", "degradation policy for unreachable neighbors: decay|guard|zero")
		callTimeout    = fs.Duration("call-timeout", 50*time.Millisecond, "per-attempt peer-query deadline when faults are active")
		callRetries    = fs.Int("call-retries", 3, "peer-query attempts (incl. the first) when faults are active")
		brkThreshold   = fs.Int("breaker-threshold", 0, "consecutive failures that open a link's circuit breaker (0 = off)")
		brkCooldown    = fs.Duration("breaker-cooldown", 250*time.Millisecond, "breaker open→half-open cooldown")
	)
	sf := addServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var fallback core.Fallback
	switch *faultFallback {
	case "decay":
		fallback = core.Fallback{Mode: core.FallbackDecay}
	case "guard":
		fallback = core.Fallback{Mode: core.FallbackGuard}
	case "zero":
		fallback = core.Fallback{Mode: core.FallbackZero}
	default:
		fmt.Fprintf(stderr, "bsnet: unknown -fault-fallback %q\n", *faultFallback)
		return 2
	}
	if *sf.serve {
		return runServe(sf, *cells, *seed, *doAudit, fallback, stdout, stderr)
	}
	faulty := *faultDrop > 0 || *faultCorrupt > 0 || *faultDelay > 0 || *faultPartition >= 0
	var inj *injector
	if faulty {
		if *faultPartition >= *cells {
			fmt.Fprintf(stderr, "bsnet: -fault-partition %d outside the %d-cell ring\n", *faultPartition, *cells)
			return 2
		}
		inj = &injector{
			cfg:     faults.Config{Seed: *faultSeed, Drop: *faultDrop, Corrupt: *faultCorrupt, Delay: *faultDelay},
			byOwner: map[int][]*faults.Link{},
		}
	}

	top := topology.Ring(*cells)
	nodes := make([]*signaling.BSNode, *cells)
	for i := range nodes {
		nodes[i] = signaling.NewBSNode(topology.CellID(i), top, core.Config{
			Capacity:   100,
			Admission:  core.MustPolicy("AC3"),
			PHDTarget:  0.01,
			TStart:     1,
			Estimation: predict.StationaryConfig(),
			Fallback:   fallback,
		})
		if faulty {
			nodes[i].SetCallPolicy(signaling.CallPolicy{
				Timeout:     *callTimeout,
				MaxAttempts: *callRetries,
				Backoff:     5 * time.Millisecond,
				JitterSeed:  *faultSeed,
			})
		}
		if *brkThreshold > 0 {
			nodes[i].SetBreakerConfig(*brkThreshold, *brkCooldown)
		}
	}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()

	var mscLinks []*signaling.Peer
	switch *mode {
	case "mesh":
		if err := wireMeshTCP(top, nodes, inj); err != nil {
			fmt.Fprintf(stderr, "bsnet: %v\n", err)
			return 1
		}
	case "star":
		msc := signaling.NewMSC()
		ml, err := wireStarTCP(nodes, msc, inj)
		if err != nil {
			fmt.Fprintf(stderr, "bsnet: %v\n", err)
			return 1
		}
		mscLinks = ml
	default:
		fmt.Fprintf(stderr, "bsnet: unknown mode %q\n", *mode)
		return 2
	}
	fmt.Fprintf(stdout, "wired %d base stations over TCP (%s)\n", *cells, *mode)
	// links returns a BS's links: one per neighbour in a mesh, its MSC
	// uplink in a star.
	links := func(n *signaling.BSNode) []*signaling.Peer {
		if *mode == "star" {
			return []*signaling.Peer{n.Link(signaling.MSCNode)}
		}
		var ps []*signaling.Peer
		for _, nb := range top.Neighbors(n.ID()) {
			ps = append(ps, n.Link(signaling.NodeID(nb)))
		}
		return ps
	}
	if faulty {
		fmt.Fprintf(stdout, "fault injection: drop=%.2f corrupt=%.2f delay=%s partition=%d fallback=%s seed=%d\n",
			*faultDrop, *faultCorrupt, *faultDelay, *faultPartition, *faultFallback, *faultSeed)
		for _, l := range inj.byOwner[*faultPartition] {
			l.Partition()
		}
	}

	// Pre-populate each cell with connections and mobility history so
	// reservations are non-trivial, then drive admission requests.
	rng := rand.New(rand.NewPCG(*seed, 0))
	mix := traffic.Mix{VoiceRatio: 0.8}
	var id core.ConnID
	for ci, n := range nodes {
		deg := top.Degree(topology.CellID(ci))
		for k := 0; k < 40; k++ {
			n.Engine().RecordDeparture(predict.Quadruplet{
				Event:   float64(k),
				Prev:    topology.LocalIndex(rng.IntN(deg + 1)),
				Next:    topology.LocalIndex(1 + rng.IntN(deg)),
				Sojourn: 20 + rng.Float64()*300,
			})
		}
		occupancy := int(*load * 0.4)
		for n.Engine().UsedBandwidth() < occupancy && n.Engine().UsedBandwidth() < 95 {
			id++
			bw := mix.Sample(rng).Bandwidth
			if n.Engine().UsedBandwidth()+bw > 100 {
				break
			}
			n.Engine().AddConnection(id, core.ConnSpec{Min: bw, Prev: topology.LocalIndex(rng.IntN(deg + 1))}, 60+rng.Float64()*30)
		}
	}

	admitted, blocked := 0, 0
	var calcs int
	wall := clock.Wall{}
	lat := make([]time.Duration, 0, *requests)
	framesBefore, bytesBefore := wireTraffic(nodes, links, mscLinks)
	for i := 0; i < *requests; i++ {
		n := nodes[rng.IntN(len(nodes))]
		bw := mix.Sample(rng).Bandwidth
		t0 := wall.Now()
		d := n.Engine().AdmitNew(100+float64(i)*0.1, bw, n.Peers())
		lat = append(lat, wall.Since(t0))
		calcs += d.BrCalcs
		if d.Admitted {
			admitted++
			id++
			n.Engine().AddConnection(id, core.ConnSpec{Min: bw, Prev: topology.Self}, 100+float64(i)*0.1)
		} else {
			blocked++
		}
	}

	totalFrames, totalBytes := wireTraffic(nodes, links, mscLinks)
	fmt.Fprintf(stdout, "admission requests: %d admitted, %d blocked (Ncalc avg %.2f)\n",
		admitted, blocked, float64(calcs)/float64(*requests))
	if *requests > 0 {
		// The wire cost of the paper's Fig. 13 quantity: what one
		// admission test sends, and how long the caller waits for it.
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Fprintf(stdout, "per admission test: %.2f frames, %.0f bytes on the wire; decision wall p50 %s, p99 %s\n",
			float64(totalFrames-framesBefore)/float64(*requests),
			float64(totalBytes-bytesBefore)/float64(*requests),
			lat[len(lat)/2], lat[len(lat)*99/100])
	}

	tb := stats.NewTable("Cell", "Bu", "Br", "frames-sent")
	for ci, n := range nodes {
		frames := uint64(0)
		for _, p := range links(n) {
			frames += p.Stats().Sent.Load()
		}
		tb.AddRowStrings(fmt.Sprintf("%d", ci+1),
			fmt.Sprintf("%d", n.Engine().UsedBandwidth()),
			fmt.Sprintf("%.2f", n.Engine().LastTargetReservation()),
			fmt.Sprintf("%d", frames))
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, tb.String())
	fmt.Fprintf(stdout, "total protocol frames sent: %d\n", totalFrames)

	if faulty {
		var c faults.Counters
		for _, ls := range inj.byOwner {
			for _, l := range ls {
				lc := l.Counters()
				c.Dropped += lc.Dropped
				c.Corrupted += lc.Corrupted
				c.Delayed += lc.Delayed
				c.Blackholed += lc.Blackholed
			}
		}
		fmt.Fprintf(stdout, "faults injected: %d dropped, %d corrupted, %d delayed, %d blackholed\n",
			c.Dropped, c.Corrupted, c.Delayed, c.Blackholed)
		var remoteErrs, retries, timeouts, opens, degBr, degAdm uint64
		for _, n := range nodes {
			remoteErrs += n.RemoteErrors()
			l := n.Engine().Ledger()
			degBr += l.DegradedBrCalcs
			degAdm += l.DegradedAdmissions
			for _, p := range links(n) {
				retries += p.Stats().Retries.Load()
				timeouts += p.Stats().Timeouts.Load()
				if b := p.Breaker(); b != nil {
					opens += b.Opens()
				}
			}
		}
		fmt.Fprintf(stdout, "degraded mode: %d failed queries (%d timeouts, %d retries, %d breaker opens), %d degraded B_r calcs, %d degraded admissions\n",
			remoteErrs, timeouts, retries, opens, degBr, degAdm)
	}

	if *doAudit {
		if err := auditNodes(nodes); err != nil {
			fmt.Fprintf(stderr, "bsnet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "audit: %d base-station ledgers verified clean\n", len(nodes))
	}
	return 0
}

// wireTraffic totals the frames and bytes sent so far on every link of
// the deployment: each BS's links and, in a star, the MSC's.
func wireTraffic(nodes []*signaling.BSNode, links func(*signaling.BSNode) []*signaling.Peer, mscLinks []*signaling.Peer) (frames, bytes uint64) {
	add := func(p *signaling.Peer) {
		frames += p.Stats().Sent.Load()
		bytes += p.Stats().BytesSent.Load()
	}
	for _, n := range nodes {
		for _, p := range links(n) {
			add(p)
		}
	}
	for _, p := range mscLinks {
		add(p)
	}
	return frames, bytes
}

// auditNodes runs the invariant checker over every node's ledger,
// converting a Violation panic into an error for CLI reporting.
func auditNodes(nodes []*signaling.BSNode) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*audit.Violation); ok {
				err = v
				return
			}
			panic(r)
		}
	}()
	var ck audit.Checker
	for ci, n := range nodes {
		ck.Engine(fmt.Sprintf("bs %d", ci), 0, n.Engine().Ledger())
	}
	return nil
}

// injector routes BS-side connections through internal/faults links,
// giving each its own deterministic PCG stream derived from the base
// seed, and remembers them per owning cell so a -fault-partition cell's
// outbound links can be black-holed after wiring. A nil injector wraps
// nothing. Wrapping happens only on the wiring goroutine.
type injector struct {
	cfg     faults.Config
	n       uint64
	byOwner map[int][]*faults.Link
}

// wrap wraps owner's side of a connection (nil injector: pass-through).
func (in *injector) wrap(owner int, conn io.ReadWriteCloser) io.ReadWriteCloser {
	if in == nil {
		return conn
	}
	c := in.cfg
	in.n++
	c.Seed = in.cfg.Seed + in.n
	l := faults.Wrap(conn, c)
	in.byOwner[owner] = append(in.byOwner[owner], l)
	return l
}

// wireMeshTCP connects every neighboring pair over loopback TCP.
func wireMeshTCP(top *topology.Topology, nodes []*signaling.BSNode, inj *injector) error {
	for a := 0; a < len(nodes); a++ {
		for _, nb := range top.Neighbors(topology.CellID(a)) {
			if int(nb) <= a {
				continue
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			// The accept goroutine only performs the handshake; both
			// Attach calls stay on this goroutine.
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
				return err
			}
			nodes[nb].Attach(signaling.NodeID(a), inj.wrap(int(nb), conn))
			h := <-acc
			if h.err != nil {
				return h.err
			}
			nodes[a].Attach(h.remote, inj.wrap(a, h.conn))
			ln.Close()
		}
	}
	return nil
}

// wireStarTCP connects every BS to an in-process MSC over loopback TCP,
// returning the MSC-side links. Faults are injected on the BS side of
// each uplink only — the MSC side is attached from the accept
// goroutine, and one faulty end per pipe already exercises both
// directions of every relayed query.
func wireStarTCP(nodes []*signaling.BSNode, msc *signaling.MSC, inj *injector) ([]*signaling.Peer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	var mscLinks []*signaling.Peer
	done := make(chan error, 1)
	go func() {
		for range nodes {
			conn, err := ln.Accept()
			if err != nil {
				done <- err
				return
			}
			remote, err := signaling.AcceptHello(conn)
			if err != nil {
				done <- err
				return
			}
			mscLinks = append(mscLinks, msc.Attach(remote, conn))
		}
		done <- nil
	}()
	for _, n := range nodes {
		conn, err := signaling.DialTCP(ln.Addr().String(), signaling.NodeID(n.ID()))
		if err != nil {
			return nil, err
		}
		n.Attach(signaling.MSCNode, inj.wrap(int(n.ID()), conn))
	}
	if err := <-done; err != nil {
		return nil, err
	}
	return mscLinks, nil
}
