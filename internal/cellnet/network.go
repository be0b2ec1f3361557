package cellnet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"unsafe"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/predict"
	"cellqos/internal/sim"
	"cellqos/internal/sim/shard"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
	"cellqos/internal/wired"
)

// Trace records a cell's control state over time (Figs. 10–11).
type Trace struct {
	// Test is T_est after each hand-off arrival.
	Test stats.Series
	// Br is the target reservation bandwidth after each recomputation.
	Br stats.Series
	// PHD is the cumulative hand-off dropping probability after each
	// hand-off arrival.
	PHD stats.Series
}

// cell bundles one base station's engine with its metrics.
type cell struct {
	id       topology.CellID
	engine   *core.Engine
	peers    core.Peers
	sched    sim.Scheduler // the cell's kernel shard (the whole kernel at 1 shard)
	tab      *shardState   // the ownership table tracking this cell's connections
	counters stats.Counters
	hourly   stats.Hourly
	brTW     stats.TimeWeighted
	buTW     stats.TimeWeighted
	degTW    stats.TimeWeighted // degraded adaptive-QoS bandwidth
	// exchanges counts peer information exchanges initiated by this cell
	// (each is one request/response round trip on the signaling network).
	exchanges uint64
	trace     *Trace

	// rng draws the cell's arrivals, class mix, lifetimes and retries:
	// the cell's own salted stream under delayed signaling, the run's one
	// shared stream (Network.rng) under instant signaling.
	rng     *rand.Rand
	connSeq uint64 // per-cell connection counter (IDs: cell<<32 | seq)
	// arrive is the cell's new-connection request event, built once in New:
	// a cell has one pending arrival at a time, and rebooks this closure.
	arrive sim.Event

	// Delayed-signaling state (Config.Sharding.Async); nil/zero otherwise.
	mirror []mirrorEntry // last known neighbor state, by local index (entry 0 unused)
	msgSeq uint64        // per-cell message counter (mailbox ordering keys)
}

// connection is the network-level state of one mobile's connection.
type connection struct {
	id         core.ConnID
	bw         int
	cell       topology.CellID
	prevInCell topology.LocalIndex // local index (in cell's space) of the previous cell
	enteredAt  float64
	diesAt     float64
	wpath      wired.Path        // reserved backbone path (when a Backbone is configured)
	pledges    []topology.CellID // cells holding a MobSpec pledge for this connection
	min, max   int               // QoS range; rigid connections have min == max == bw
	class      core.ServiceClass // service class (voice = 0, video = streaming)
	// move is the mobile's path and the slot's private stream, beside
	// the record in its slot. Under delayed signaling the path draws from
	// that stream, hop by hop: the connection migrates across shards, so
	// the draws must follow it, not a cell or the run. Under instant
	// signaling the path draws from the run's one shared stream.
	move *connMove

	// A connection has exactly one pending kernel event at a time — its
	// next boundary crossing (toward hop), its lifetime end, a soft
	// hand-off re-test or, under delayed signaling, its arrival in the
	// next cell (transit: it is in the mailbox, tracked by no table).
	// pending is set while that event is booked; scheduleDeparture panics
	// on a second booking and release on a slot still booked. The slot
	// carries one event closure for life, built when the slot is carved
	// (newConn), instead of allocating one per booking or per connection.
	// The closure captures only the Network and the slot, never a
	// scheduler: under delayed signaling the connection migrates between
	// shards.
	event    sim.Event
	hop      mobility.Hop
	crossing bool
	transit  bool
	pending  bool
}

// connSlot is a connection record and its path and private stream,
// side by side in a table's chunk of connChunk slots, reused when a call
// ends (newConn, release). The record points at them rather than holding
// them, so it keeps its size class.
type connSlot struct {
	connection
	move connMove
}

// connMove is what a connection's movement keeps in its slot: the
// mobility path, which a model refills for each tenant (newPath), and
// the slot's private stream, the generator and the rand.Rand drawing
// from it. Reseeding pcg with connStream(id) gives the draws of a fresh
// stream for connection id.
type connMove struct {
	path mobility.PathState
	pcg  rand.PCG
	r    rand.Rand
}

// connChunk is the number of slots a table allocates at a time: as many
// as fit in 32 KiB, Go's largest small-object size class. A chunk any
// larger is a large object, rounded up to whole 8-KiB pages.
const connChunk = 32 << 10 / unsafe.Sizeof(connSlot{})

// Network is a runnable cellular-network simulation.
//
// Under instant signaling (the default) a Network is single-threaded and
// confined to one goroutine: engines, counters, the event kernel and the
// RNG are all unsynchronized ("one Network per goroutine"). Concurrent
// sweeps (internal/runner) build one Network per scenario point from an
// independent Config; the only Config field that cannot be shared
// between Networks is the mutable Backbone pointer, which New claims via
// wired.Backbone.Attach.
//
// With a positive Config.Sharding.SignalingLatency the same event
// pipeline runs under the delayed signaling model (see network_async.go):
// the cells are partitioned across the shards of an internal/sim/shard
// kernel and the shards execute concurrently; each shard then only ever
// touches the cells and connections it owns, and Run/RunUntil/Snapshot
// remain single-goroutine entry points.
type Network struct {
	cfg    Config
	traits core.PolicyTraits // resolved admission-policy traits
	kernel sim.Kernel
	shk    *shard.Kernel       // non-nil under delayed signaling
	part   *topology.Partition // cell→shard ownership (nil with the single-heap kernel)
	// tables are the connection ownership tables: one per kernel shard
	// under delayed signaling, a single one for the whole run otherwise.
	tables []*shardState
	rng    *rand.Rand // shared stream (nil under delayed signaling)
	cells  []*cell

	// Soft hand-off outcome counters (§7 CDMA extension).
	softSaved   uint64 // hand-offs completed within the overlap window
	softExpired uint64 // pending hand-offs dropped at window expiry

	// Fault-injection state (Config.FaultDrop): a dedicated RNG stream so
	// the fault schedule never perturbs the traffic/mobility draws, and
	// the count of injected exchange failures.
	faultRng   *rand.Rand
	peerFaults uint64

	// specCache memoizes the MobSpec within-horizon cell set per start
	// cell (specOK marks computed entries — an empty spec is a valid
	// result). Topology and horizon are immutable for the life of a
	// Network, so the BFS runs once per cell per run and an admission
	// burst walks precomputed specs, paying only the pledge calls.
	specCache [][]topology.CellID
	specOK    []bool

	// auditTick counts auditNow passes; the expensive Eq. 5 cache
	// re-derivation runs on a stride of it (see audit.go).
	auditTick uint64

	// barrierTick counts windowed-kernel barriers under delayed
	// signaling; the audit samples on it there.
	barrierTick uint64
}

// now returns the kernel clock, for the entry points that run between
// events (Snapshot, ResetStats, Now). Event code reads its cell's
// scheduler clock instead: the same value in the single heap, the only
// valid one while shards execute concurrently.
func (n *Network) now() float64 { return n.kernel.Now() }

// New builds a network from a validated config.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Backbone != nil {
		if err := cfg.Backbone.Attach(); err != nil {
			return nil, err
		}
	}
	n := &Network{cfg: cfg, traits: cfg.Admission.Traits()}
	async := cfg.Sharding.Async()
	if !async {
		n.rng = rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15))
	}
	if cfg.FaultDrop > 0 {
		n.faultRng = rand.New(rand.NewPCG(cfg.Seed, 0xfa17_fa17_fa17_fa17))
	}
	// Pick the event kernel from the signaling model alone: instant
	// signaling needs one total order (the single-heap Simulator);
	// delayed signaling partitions the cells across the windowed kernel.
	nshards := cfg.Sharding.NumShards()
	var single *sim.Simulator
	if !async {
		single = sim.New()
		n.kernel = single
	} else {
		n.part = topology.NewPartition(cfg.Topology, nshards)
		n.shk = shard.New(shard.Config{Shards: nshards, Lookahead: cfg.Sharding.SignalingLatency})
		n.kernel = n.shk
	}
	n.tables = make([]*shardState, nshards)
	for s := range n.tables {
		n.tables[s] = &shardState{idx: s, conns: make(map[core.ConnID]*connection)}
	}
	num := cfg.Topology.NumCells()
	n.cells = make([]*cell, num)
	for i := 0; i < num; i++ {
		id := topology.CellID(i)
		c := &cell{id: id, engine: core.NewEngine(cfg.engineConfig(id))}
		if async {
			c.sched = n.shk.Shard(n.part.ShardOf(id))
			c.tab = n.tables[n.part.ShardOf(id)]
			c.peers = &mirrorPeers{c: c}
			c.rng = rand.New(rand.NewPCG(cfg.Seed, cellStream(id)))
			c.mirror = make([]mirrorEntry, cfg.Topology.Degree(id)+1)
		} else {
			c.sched = single
			c.tab = n.tables[0]
			c.peers = &memPeers{n: n, c: c}
			c.rng = n.rng
		}
		c.arrive = func(sim.Scheduler) { n.onArrival(c) }
		c.tab.cells = append(c.tab.cells, c)
		c.brTW.Set(0, c.engine.LastTargetReservation())
		c.buTW.Set(0, 0)
		n.cells[i] = c
	}
	for _, id := range cfg.TraceCells {
		n.cells[id].trace = &Trace{}
	}
	// Initial events, per table: arrivals in ascending cell ID, then the
	// sweep, then the exchange round. The order fixes the heap sequence
	// numbers that break same-time ties, so it is part of the results.
	for _, st := range n.tables {
		for _, c := range st.cells {
			n.scheduleNextArrival(c)
		}
		if n.traits.Adaptive && !math.IsInf(cfg.Estimation.Tint, 1) {
			// Periodically apply the §3.1 cache-deletion rule so long runs
			// don't accumulate out-of-date quadruplets in idle pairs.
			n.scheduleSweep(st, cfg.Estimation.Period)
		}
		if async && n.traits.UsesPeers {
			n.scheduleExchange(st, cfg.Sharding.exchangeEvery())
		}
	}
	if cfg.Audit != nil {
		if async {
			// Window barriers are the only instants at which every shard
			// is quiescent and its outbox delivered, so the audit hooks
			// there.
			n.shk.AtBarrier(func(now float64) {
				n.barrierTick++
				if cfg.Audit.Sample(n.barrierTick) {
					n.auditNow(now)
				}
			})
		} else {
			// Invariant auditing at event boundaries: every event's state
			// mutations are complete when the hook fires, so any ledger
			// drift is pinned to the event that introduced it.
			single.AfterEvent(func() {
				if cfg.Audit.Sample(single.Fired()) {
					n.auditNow(single.Now())
				}
			})
		}
	}
	return n, nil
}

// scheduleSweep books the recurring §3.1 cache-deletion pass over one
// table's cells, on the scheduler of its first cell: every cell on the
// single heap, one shard's own cells when shards run concurrently.
func (n *Network) scheduleSweep(st *shardState, period float64) {
	sched := st.cells[0].sched
	sched.MustAfter(period, func(sim.Scheduler) {
		t := sched.Now()
		for _, c := range st.cells {
			c.engine.SweepHistory(t)
		}
		n.scheduleSweep(st, period)
	})
}

// Now returns the simulation clock.
func (n *Network) Now() float64 { return n.now() }

// Engine exposes a cell's engine for tests and diagnostics.
func (n *Network) Engine(id topology.CellID) *core.Engine { return n.cells[id].engine }

// ActiveConnections returns the number of live connections system-wide.
// Under delayed signaling this excludes hand-offs in flight between cells.
func (n *Network) ActiveConnections() int {
	total := 0
	for _, st := range n.tables {
		total += len(st.conns)
	}
	return total
}

// EventsFired returns the number of simulation events executed.
func (n *Network) EventsFired() uint64 { return n.kernel.Fired() }

// scheduleNextArrival books the cell's next Poisson new-connection
// request from the schedule.
func (n *Network) scheduleNextArrival(c *cell) {
	at, ok := traffic.NextArrival(c.rng, n.cfg.Schedule, c.sched.Now())
	if !ok {
		return // no load ever again
	}
	if _, err := c.sched.At(at, c.arrive); err != nil {
		panic(err)
	}
}

// onArrival draws a new-connection request in cell c, runs its admission
// test and books the cell's next arrival.
func (n *Network) onArrival(c *cell) {
	class := n.cfg.Mix.Sample(c.rng)
	min, max := class.Bandwidth, class.Bandwidth
	if n.cfg.AdaptiveVideoMin > 0 && class == traffic.Video {
		min = n.cfg.AdaptiveVideoMin
	}
	n.request(c, min, max, serviceClass(class), 1)
	n.scheduleNextArrival(c)
}

// serviceClass maps the traffic mix onto admission service classes:
// voice is the highest priority, video the degradable streaming class.
func serviceClass(class traffic.Class) core.ServiceClass {
	if class == traffic.Video {
		return core.ClassStreaming
	}
	return core.ClassRealTime
}

// request runs the admission test for a new connection needing at least
// min and at most max BUs in cell c; nRet counts requests made so far by
// this user (for the retry model). Admission — and reservation — is on
// the minimum-QoS basis (§1). Neighbor state comes through c.peers, so
// under delayed signaling the test is just as local and immediate; only
// its inputs are older.
func (n *Network) request(c *cell, min, max int, svc core.ServiceClass, nRet int) {
	now := c.sched.Now()
	d := c.engine.AdmitNewRequest(now, core.Request{Bandwidth: min, Class: svc}, c.peers)
	c.counters.RecordAdmissionTest(d.BrCalcs)
	admitted := d.Admitted
	var pledges []topology.CellID
	if admitted && n.traits.MobSpec {
		// Ref. [14]-style baseline: pledge the bandwidth in every cell of
		// the mobility specification, all-or-nothing.
		pledges, admitted = n.pledgeSpec(c.id, min)
	}
	var wpath wired.Path
	if admitted && n.cfg.Backbone != nil {
		// Wired-link reservation (§2/§7 extension): the backbone must
		// also carry the connection, or it blocks.
		wpath, admitted = n.cfg.Backbone.Connect(c.id, min)
		if !admitted && len(pledges) > 0 {
			// The MobSpec pledges were provisional on the whole admission:
			// a wired block means no connection, so roll them back.
			for _, id := range pledges {
				n.cells[id].engine.Unpledge(min)
			}
			pledges = nil
		}
	}
	c.counters.RecordRequest(!admitted)
	c.hourly.RecordRequest(now, !admitted)
	n.noteBr(c, now)
	if admitted {
		n.establish(c, min, max, svc, wpath, pledges, now)
		return
	}
	if n.cfg.Retry.ShouldRetry(c.rng, nRet) {
		c.sched.MustAfter(n.cfg.Retry.WaitSeconds, func(sim.Scheduler) {
			n.request(c, min, max, svc, nRet+1)
		})
	}
}

// pledgeSpec reserves bw in every cell within the MobSpec horizon of
// start, rolling back on the first refusal. The spec itself comes from
// the per-cell cache (mobSpec), so a burst of admissions in one cell
// repeats only the pledge calls, not the topology BFS.
func (n *Network) pledgeSpec(start topology.CellID, bw int) ([]topology.CellID, bool) {
	spec := n.mobSpec(start)
	for i, id := range spec {
		if !n.cells[id].engine.Pledge(bw) {
			for _, back := range spec[:i] {
				n.cells[back].engine.Unpledge(bw)
			}
			return nil, false
		}
	}
	if len(spec) == 0 {
		return nil, true
	}
	// The pledge list is per-connection mutable state (dropPledge and
	// hand-off re-pledges edit it in place): hand out a copy, never the
	// cached spec.
	return append([]topology.CellID(nil), spec...), true
}

// mobSpec returns the memoized within-horizon cell set for start.
func (n *Network) mobSpec(start topology.CellID) []topology.CellID {
	if n.specCache == nil {
		n.specCache = make([][]topology.CellID, len(n.cells))
		n.specOK = make([]bool, len(n.cells))
	}
	if !n.specOK[start] {
		h := n.cfg.MobSpecHorizon
		if h <= 0 {
			h = 2
		}
		n.specCache[start] = n.cfg.Topology.WithinHops(start, h)
		n.specOK[start] = true
	}
	return n.specCache[start]
}

// dropPledge releases the connection's pledge at one cell, if any.
func (n *Network) dropPledge(conn *connection, at topology.CellID) bool {
	for i, id := range conn.pledges {
		if id == at {
			n.cells[id].engine.Unpledge(conn.min)
			conn.pledges = append(conn.pledges[:i], conn.pledges[i+1:]...)
			return true
		}
	}
	return false
}

// releasePledges frees every remaining pledge of a dying connection.
func (n *Network) releasePledges(conn *connection) {
	for _, id := range conn.pledges {
		n.cells[id].engine.Unpledge(conn.min)
	}
	conn.pledges = nil
}

// establish creates an admitted connection in cell c. Its ID is
// cell<<32 | per-cell sequence: a function of the scenario alone, never
// of the shard count or of the order concurrent shards reach this point.
func (n *Network) establish(c *cell, min, max int, svc core.ServiceClass, wpath wired.Path, pledges []topology.CellID, now float64) {
	c.connSeq++
	id := core.ConnID(uint64(c.id)<<32 | (c.connSeq & 0xffffffff))
	conn := n.newConn(c.tab)
	*conn = connection{
		id:         id,
		bw:         min,
		min:        min,
		max:        max,
		class:      svc,
		cell:       c.id,
		prevInCell: topology.Self,
		enteredAt:  now,
		diesAt:     now + traffic.Lifetime(c.rng, n.cfg.MeanLifetime),
		wpath:      wpath,
		pledges:    pledges,
		move:       conn.move,
		event:      conn.event,
	}
	rng := n.rng
	if rng == nil { // delayed signaling: the slot's stream, seeded by the ID
		conn.move.pcg.Seed(n.cfg.Seed, connStream(id))
		rng = &conn.move.r
	}
	n.newPath(&conn.move.path, rng, c.id, now)
	c.tab.conns[id] = conn
	c.tab.births++
	hop, ok := conn.move.path.NextHop()
	n.addTo(c, conn, topology.Self, hop, ok, now)
	n.scheduleDeparture(conn, hop, ok)
}

// newConn draws a connection slot from table st: a released one if any,
// else the next of the current chunk, whose event closure and stream are
// wired up here, once for the slot's life. establish overwrites the rest.
func (n *Network) newConn(st *shardState) *connection {
	if conn := pop(&st.freeConns); conn != nil {
		return conn
	}
	if len(st.chunk) == 0 {
		st.chunk = make([]connSlot, connChunk)
	}
	s := &st.chunk[0]
	st.chunk = st.chunk[1:]
	conn := &s.connection
	s.move.r = *rand.New(&s.move.pcg)
	conn.move = &s.move
	conn.event = func(sim.Scheduler) {
		conn.pending = false
		switch {
		case conn.transit:
			n.onHandOffArrival(conn)
		case conn.crossing:
			n.onCrossing(conn, conn.hop)
		default:
			n.onLifetimeEnd(conn)
		}
	}
	return conn
}

// release returns a dead connection's slot to the free list of table st,
// the table whose shard ran the death, so no list is touched from two
// shards. A slot with a booked event would fire into its next tenant.
// Clearing the path, pledges and wired path leaves a free slot holding
// nothing else alive: the path points at its model and, on a hex walk,
// at the stream it draws from.
func (st *shardState) release(conn *connection) {
	if conn.pending {
		panic(fmt.Sprintf("cellnet: releasing connection %d with a booked event", conn.id))
	}
	conn.move.path = mobility.PathState{}
	conn.pledges, conn.wpath = nil, wired.Path{}
	st.freeConns = append(st.freeConns, conn)
}

// addTo registers conn in cell c's engine, arrived from local index prev
// with its next hop already drawn. Elastic connections (min < max) take
// whatever the engine grants; only rigid ones carry the §7 direction hint.
func (n *Network) addTo(c *cell, conn *connection, prev topology.LocalIndex, hop mobility.Hop, ok bool, now float64) {
	spec := core.ConnSpec{Min: conn.min, Max: conn.max, Prev: prev, Class: conn.class}
	if conn.min == conn.max {
		spec.Hint = n.hintFor(c.id, hop, ok)
	}
	conn.bw = c.engine.AddConnection(conn.id, spec, now)
	n.noteBu(c, now)
}

// hintFor converts a known upcoming hop into a §7 direction hint when
// the scenario enables route-guidance information.
func (n *Network) hintFor(cur topology.CellID, hop mobility.Hop, ok bool) topology.LocalIndex {
	if !n.cfg.DirectionHints || !ok || hop.Next == topology.None {
		return core.NoHint
	}
	li, found := n.cfg.Topology.LocalOf(cur, hop.Next)
	if !found {
		return core.NoHint
	}
	return li
}

// pathIniter is a mobility model that fills a caller-owned path: every
// model in internal/mobility.
type pathIniter interface {
	InitPath(ps *mobility.PathState, rng *rand.Rand, start topology.CellID, sr mobility.SpeedRange)
}

// newPath fills ps with a new mobile's movement drawn from rng, at the
// schedule's current speed range. A schedule that doesn't specify speeds
// (zero range, e.g. a bare traffic.Constant{Lambda: …}) defers to the
// model's own configured range. A model that only mints paths (a wrapper
// around a mobility model) has its path copied in, and must mint a
// *mobility.PathState.
func (n *Network) newPath(ps *mobility.PathState, rng *rand.Rand, start topology.CellID, now float64) {
	lo, hi := n.cfg.Schedule.Speed(now)
	sr := mobility.SpeedRange{MinKmh: lo, MaxKmh: hi}
	var p mobility.Path
	switch m := n.cfg.Mobility.(type) {
	case pathIniter:
		m.InitPath(ps, rng, start, sr)
		return
	case mobility.SpeedAware:
		p = m.NewPathWithSpeed(rng, start, sr)
	default:
		p = m.NewPath(rng, start)
	}
	minted, ok := p.(*mobility.PathState)
	if !ok {
		panic(fmt.Sprintf("cellnet: mobility model %T minted a %T path; want *mobility.PathState", n.cfg.Mobility, p))
	}
	*ps = *minted
}

// scheduleDeparture books the single next event for a connection that
// just entered its current cell: either the boundary crossing or, when
// the connection dies first (or the mobile never moves), its natural
// end. The hop has already been drawn from the path (the engine may
// have consumed it as a direction hint).
func (n *Network) scheduleDeparture(conn *connection, hop mobility.Hop, ok bool) {
	if conn.pending {
		panic(fmt.Sprintf("cellnet: second pending event for connection %d", conn.id))
	}
	conn.pending = true
	sched := n.cells[conn.cell].sched
	now := sched.Now()
	conn.crossing = ok && !math.IsInf(hop.Sojourn, 1) && now+hop.Sojourn < conn.diesAt
	if conn.crossing {
		conn.hop = hop
		sched.MustAfter(hop.Sojourn, conn.event)
		return
	}
	// Under delayed signaling a connection can arrive from a hand-off
	// with its lifetime already expired (it died in transit): the
	// remaining lifetime clamps to zero and the completion fires at once.
	sched.MustAfter(math.Max(conn.diesAt-now, 0), conn.event)
}

// residence returns the cell conn's pending event fires in, after
// checking that the connection is still tracked there: every teardown
// leaves a connection without events, so a miss is a pipeline bug.
func (n *Network) residence(conn *connection, event string) *cell {
	c := n.cells[conn.cell]
	if c.tab.conns[conn.id] != conn {
		panic(fmt.Sprintf("cellnet: %s for dead connection %d", event, conn.id))
	}
	return c
}

// onHandOffArrival lands a hand-off mailed by onCrossing under delayed
// signaling, one latency after the old cell let go: conn.cell is still
// the cell it left and conn.hop.Next the one it is entering.
func (n *Network) onHandOffArrival(conn *connection) {
	conn.transit = false
	from, to := n.cells[conn.cell], n.cells[conn.hop.Next]
	now := to.sched.Now()
	to.tab.recvHO++
	admitted := n.admitHandOff(conn, to, now)
	n.noteHandOff(to, now, admitted)
	if !admitted {
		to.tab.deaths++ // hand-off drop: the connection dies in transit
		to.tab.release(conn)
		return
	}
	to.tab.conns[conn.id] = conn
	n.enterCell(conn, from, to, now)
}

// onCrossing processes a mobile reaching its cell boundary.
func (n *Network) onCrossing(conn *connection, hop mobility.Hop) {
	from := n.residence(conn, "crossing")
	now := from.sched.Now()
	if hop.Next == topology.None {
		// The mobile leaves the coverage area (open-line border).
		from.counters.Exited++
		n.teardown(from, conn, now)
		return
	}
	to := n.cells[hop.Next]
	nextLocal, okLocal := n.cfg.Topology.LocalOf(from.id, to.id)
	if !okLocal {
		panic(fmt.Sprintf("cellnet: crossing %d→%d between non-neighbors", from.id, to.id))
	}
	// The departing cell observes the hand-off event (§3.1).
	quad := predict.Quadruplet{Event: now, Prev: conn.prevInCell, Next: nextLocal, Sojourn: now - conn.enteredAt}

	// The one place the two signaling models differ in kind. With instant
	// signaling the destination is tested before the old cell lets go, and
	// the old cell knows the outcome. With a delay it cannot: it releases
	// and records now, the connection travels as a mailbox message, and
	// the outcome is decided on arrival, one latency later.
	if n.cfg.Sharding.Async() {
		n.vacate(from, conn, now)
		// The movement is always recorded: the remote admission outcome is
		// unknowable here (validation rejects SkipDroppedDepartures).
		from.engine.RecordDeparture(quad)
		delete(from.tab.conns, conn.id)
		from.tab.sentHO++
		conn.transit, conn.pending = true, true
		n.send(from, to.tab, conn.event)
		return
	}

	admitted := n.admitHandOff(conn, to, now)
	// Whether a dropped hand-off still counts as a mobility observation
	// is an ablation toggle; the default records it.
	if admitted || !n.cfg.SkipDroppedDepartures {
		from.engine.RecordDeparture(quad)
	}
	if !admitted && n.cfg.SoftOverlap > 0 {
		// §7 CDMA soft hand-off: hold both links for up to the overlap
		// window; the hand-off resolves (and is counted) later.
		deadline := math.Min(now+n.cfg.SoftOverlap, conn.diesAt)
		n.scheduleSoftRetry(conn, from, to, deadline)
		return
	}
	n.resolveHandOff(conn, from, to, admitted, now)
	if admitted {
		n.enterCell(conn, from, to, now)
	}
}

// admitHandOff tests whether cell to can take conn over, on the wireless
// link and — when configured — the backbone.
func (n *Network) admitHandOff(conn *connection, to *cell, now float64) bool {
	// A MobSpec pledge at the destination converts into used bandwidth.
	n.dropPledge(conn, to.id)
	admitted := to.engine.AdmitHandOffRequest(now, core.Request{Bandwidth: conn.min, Class: conn.class}, to.peers).Admitted
	if !admitted && n.cfg.AdaptiveVideoMin > 0 {
		// Adaptive QoS absorbs the hand-off by degrading existing
		// connections toward their minima (§1).
		admitted = to.engine.DowngradeToFit(conn.min)
		n.noteBu(to, now)
	}
	if admitted && n.cfg.Backbone != nil {
		// The backbone must re-route the wired path too, or the
		// hand-off drops despite wireless capacity.
		if wp, ok := n.cfg.Backbone.HandOff(conn.wpath, to.id, conn.min); ok {
			conn.wpath = wp
		} else {
			admitted = false
		}
	}
	return admitted
}

// noteHandOff books a hand-off outcome at the destination: counters, the
// T_est controller (§4.2) and traces.
func (n *Network) noteHandOff(to *cell, now float64, admitted bool) {
	to.counters.RecordHandOff(!admitted)
	to.hourly.RecordHandOff(now, !admitted)
	to.engine.NoteHandOffArrival(now, !admitted, to.peers)
	if to.trace != nil {
		to.trace.Test.Append(now, to.engine.Test())
		to.trace.PHD.Append(now, to.counters.PHD())
	}
}

// resolveHandOff books an instant-signaling hand-off outcome and removes
// the connection from its old cell — for good on a drop.
func (n *Network) resolveHandOff(conn *connection, from, to *cell, admitted bool, now float64) {
	n.noteHandOff(to, now, admitted)
	if admitted {
		n.vacate(from, conn, now)
	} else {
		n.teardown(from, conn, now) // hand-off drop: the connection dies
	}
}

// vacate takes conn out of cell c's engine. Degraded adaptive-QoS
// connections then grow back into the freed bandwidth.
func (n *Network) vacate(c *cell, conn *connection, now float64) {
	c.engine.RemoveConnection(conn.id)
	if n.cfg.AdaptiveVideoMin > 0 {
		c.engine.RedistributeFree()
	}
	n.noteBu(c, now)
}

// teardown ends a connection resident in cell c: it leaves the engine,
// gives back its backbone path and pledges, and leaves its table.
func (n *Network) teardown(c *cell, conn *connection, now float64) {
	n.vacate(c, conn, now)
	n.releaseWired(conn)
	n.releasePledges(conn)
	c.tab.deaths++
	delete(c.tab.conns, conn.id)
	c.tab.release(conn)
}

// enterCell completes a successful hand-off: the connection joins the
// new cell and its next departure is scheduled.
func (n *Network) enterCell(conn *connection, from, to *cell, now float64) {
	prevLocal, _ := n.cfg.Topology.LocalOf(to.id, from.id)
	nextHop, okNext := conn.move.path.NextHop()
	n.addTo(to, conn, prevLocal, nextHop, okNext, now)
	conn.cell = to.id
	conn.prevInCell = prevLocal
	conn.enteredAt = now
	if n.traits.MobSpec {
		// Ref. [14] keeps the specification reserved for the whole
		// connection lifetime: the cell just left goes back on pledge
		// (the mobile may revisit it, e.g. by looping around a ring).
		// The bandwidth was freed this instant, so the pledge holds.
		if from.engine.Pledge(conn.min) {
			conn.pledges = append(conn.pledges, from.id)
		}
	}
	n.scheduleDeparture(conn, nextHop, okNext)
}

// softHandOffRetry is how often, in seconds, a pending soft hand-off
// re-tests the new cell.
const softHandOffRetry = 0.5

// scheduleSoftRetry books the next capacity re-test of a pending soft
// hand-off. While pending, the connection keeps its old-cell bandwidth
// (macrodiversity in the overlap region) and no other events exist for it.
func (n *Network) scheduleSoftRetry(conn *connection, from, to *cell, deadline float64) {
	if conn.pending {
		panic(fmt.Sprintf("cellnet: second pending event for connection %d", conn.id))
	}
	conn.pending = true
	now := from.sched.Now()
	next := math.Min(now+softHandOffRetry, deadline)
	from.sched.MustAfter(next-now, func(sim.Scheduler) {
		conn.pending = false
		n.onSoftRetry(conn, from, to, deadline)
	})
}

// onSoftRetry re-tests a pending soft hand-off.
func (n *Network) onSoftRetry(conn *connection, from, to *cell, deadline float64) {
	n.residence(conn, "soft retry")
	now := from.sched.Now()
	if now >= conn.diesAt {
		// The call ended naturally while in the overlap region, still
		// served by the old cell.
		from.counters.Completed++
		n.teardown(from, conn, now)
		return
	}
	if n.admitHandOff(conn, to, now) {
		n.softSaved++
		n.resolveHandOff(conn, from, to, true, now)
		n.enterCell(conn, from, to, now)
		return
	}
	if now >= deadline {
		n.softExpired++
		n.resolveHandOff(conn, from, to, false, now)
		return
	}
	n.scheduleSoftRetry(conn, from, to, deadline)
}

// onLifetimeEnd completes a connection naturally.
func (n *Network) onLifetimeEnd(conn *connection) {
	c := n.residence(conn, "lifetime end")
	c.counters.Completed++
	n.teardown(c, conn, c.sched.Now())
}

// releaseWired frees a connection's backbone reservation, if any (the
// backbone always carries the minimum-QoS bandwidth).
func (n *Network) releaseWired(conn *connection) {
	if n.cfg.Backbone != nil && conn.wpath.Valid() {
		n.cfg.Backbone.Disconnect(conn.wpath, conn.min)
	}
}

// noteBu updates a cell's used-bandwidth time average (and, when
// adaptive QoS is on, the degradation average).
func (n *Network) noteBu(c *cell, now float64) {
	c.buTW.Set(now, float64(c.engine.UsedBandwidth()))
	if n.cfg.AdaptiveVideoMin > 0 {
		c.degTW.Set(now, float64(c.engine.DegradedBandwidth()))
	}
}

// noteBr updates a cell's target-reservation time average and trace.
func (n *Network) noteBr(c *cell, now float64) {
	br := c.engine.LastTargetReservation()
	c.brTW.Set(now, br)
	if c.trace != nil {
		c.trace.Br.Append(now, br)
	}
}

// memPeers implements core.Peers by direct in-process calls to neighbor
// engines, counting one exchange per query (what a real deployment would
// send over the Fig. 1 signaling network). With a positive Config.FaultDrop,
// each exchange independently fails with the configured probability —
// the in-process model of a lossy signaling plane — and the caller's
// engine degrades per its Fallback policy.
type memPeers struct {
	n *Network
	c *cell
}

func (p *memPeers) neighbor(li topology.LocalIndex) *cell {
	gid, ok := p.n.cfg.Topology.FromLocal(p.c.id, li)
	if !ok {
		panic(fmt.Sprintf("cellnet: bad local index %d for cell %d", li, p.c.id))
	}
	return p.n.cells[gid]
}

// faulted draws one Bernoulli trial from the dedicated fault stream.
func (p *memPeers) faulted() bool {
	if p.n.faultRng == nil {
		return false
	}
	if p.n.faultRng.Float64() >= p.n.cfg.FaultDrop {
		return false
	}
	p.n.peerFaults++
	return true
}

// OutgoingReservation implements core.Peers (Eq. 5 at the neighbor).
func (p *memPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, false
	}
	nb := p.neighbor(li)
	toward, ok := p.n.cfg.Topology.LocalOf(nb.id, p.c.id)
	if !ok {
		panic("cellnet: asymmetric neighborhood")
	}
	return nb.engine.OutgoingReservation(now, toward, test), true
}

// Snapshot implements core.Peers.
func (p *memPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, 0, 0, false
	}
	nb := p.neighbor(li)
	return nb.engine.UsedBandwidth(), nb.engine.Capacity(), nb.engine.LastTargetReservation(), true
}

// RecomputeReservation implements core.Peers: the neighbor recomputes
// its own B_r (Eq. 6) with its own T_est and peers.
func (p *memPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, 0, 0, false
	}
	nb := p.neighbor(li)
	br := nb.engine.ComputeTargetReservation(now, nb.peers)
	p.n.noteBr(nb, now)
	return nb.engine.UsedBandwidth(), nb.engine.Capacity(), br, true
}

// MaxSojourn implements core.Peers.
func (p *memPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	p.c.exchanges++
	if p.faulted() {
		return 0, false
	}
	return p.neighbor(li).engine.MaxSojourn(now), true
}
