package cellnet

import (
	"fmt"

	"cellqos/internal/core"
	"cellqos/internal/sim"
	"cellqos/internal/sim/shard"
	"cellqos/internal/topology"
)

// This file holds what the delayed signaling model — selected by
// Config.Sharding.SignalingLatency > 0, the metro-scale mode where one
// run executes across all kernel shards concurrently — has of its own.
// The event pipeline (arrival, request, establish, departure, crossing,
// lifetime end, sweep, audit) is the one in network.go; only the crossing
// forks on the model, because a delayed plane cannot test the destination
// before the old cell lets go.
//
// The instant model cannot be parallelized bit-exactly — it consumes
// one shared RNG stream in global event order and queries neighbor
// engines with zero latency. The delayed model replaces both with
// constructions whose results are independent of the shard count:
//
//   - Randomness: each cell owns a PCG stream (arrivals, class mix,
//     lifetimes, retries) and each connection owns a PCG stream seeded
//     from its ID (mobility path draws, which happen hop by hop as the
//     connection migrates across shards). Streams are keyed by cell and
//     connection IDs, never by shard.
//   - Cross-cell interaction: every hand-off and every peer-state
//     exchange travels as a mailbox message (shard.Shard.Send) with the
//     uniform one-way SignalingLatency. Messages are delivered at
//     window barriers ordered by (time, source cell, per-cell sequence)
//     — all shard-count independent.
//   - Peer state: instead of synchronous queries, every ExchangePeriod
//     each cell sends a query to each neighbor (arriving one latency
//     later); the neighbor evaluates Eq. 5 toward the asker plus its
//     snapshot state and replies (one more latency). Replies land in
//     the asker's mirror, which then serves core.Peers reads locally.
//     Until the first reply arrives a neighbor reads as unreachable and
//     the engine's Fallback policy applies — the same degradation
//     machinery the fault-injection mode exercises, now modeling
//     information delay instead of loss.
//
// Same-time events on different cells are safe to reorder: they either
// touch disjoint per-cell state or interact only through the keyed
// mailbox. That, plus the kernel's deterministic merge, is the whole
// determinism argument (DESIGN.md §13).

// cellStream derives cell id's RNG stream selector (splitmix-style odd
// multiplier keeps streams well separated for adjacent IDs).
func cellStream(id topology.CellID) uint64 {
	return 0x9e3779b97f4a7c15 ^ (uint64(id)+1)*0xbf58476d1ce4e5b9
}

// connStream derives a connection's RNG stream selector from its
// shard-count-independent ID.
func connStream(id core.ConnID) uint64 {
	return 0x2545f4914f6cdd1d ^ (uint64(id)+1)*0x94d049bb133111eb
}

// mirrorEntry is one neighbor's last replied state.
type mirrorEntry struct {
	ok         bool    // a reply has arrived
	outgoing   float64 // Eq. 5 contribution toward this cell, at reply time
	used, cap  int
	lastBr     float64
	maxSojourn float64
}

// mirrorPeers serves core.Peers from the cell's mirror: reads are local
// and immediate; freshness is bounded by ExchangePeriod + 2·latency.
// The now/test arguments are ignored — they were fixed when the mirror
// entry was computed, which is exactly the staleness the model is about.
type mirrorPeers struct{ c *cell }

func (p *mirrorPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	e := p.c.mirror[li]
	return e.outgoing, e.ok
}

func (p *mirrorPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	e := p.c.mirror[li]
	return e.used, e.cap, e.lastBr, e.ok
}

func (p *mirrorPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	// A delayed plane cannot force a synchronous recompute; the last
	// replied B_r stands in. AC2/AC3 therefore see Exchange-period-old
	// neighbor reservations, which is the point of the model.
	e := p.c.mirror[li]
	return e.used, e.cap, e.lastBr, e.ok
}

func (p *mirrorPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	e := p.c.mirror[li]
	return e.maxSojourn, e.ok
}

// shardState is an ownership table: a set of cells and the connections
// currently resident in them. Under delayed signaling there is one per
// kernel shard — only events executing on the shard touch it; the
// coordinator reads it at barriers and between runs. Under instant
// signaling one table serves the whole run.
type shardState struct {
	idx   int
	cells []*cell // owned cells, ascending ID
	conns map[core.ConnID]*connection

	// Single-writer lifecycle counters for the conservation audit:
	// births/deaths of connections in this table, and hand-off messages
	// sent to/received from the mailbox (delayed signaling only).
	births, deaths uint64
	sentHO, recvHO uint64
}

// send books a mailbox message from cell c with the model's uniform
// signaling latency and a (source cell, per-cell sequence) ordering key.
func (n *Network) send(c *cell, dstCell topology.CellID, fn sim.Event) {
	c.msgSeq++
	key := uint64(c.id)<<32 | (c.msgSeq & 0xffffffff)
	at := c.sched.Now() + n.cfg.Sharding.SignalingLatency
	c.sched.(*shard.Shard).Send(n.part.ShardOf(dstCell), at, key, fn)
}

// scheduleExchange books the shard's next peer-exchange round: each
// owned cell queries each neighbor. A round is one event per shard, not
// per cell — rounds across shards share a timestamp, which is safe
// because each cell's part touches only that cell plus the mailbox.
func (n *Network) scheduleExchange(st *shardState, period float64) {
	sched := st.cells[0].sched
	sched.MustAfter(period, func(sim.Scheduler) {
		now := sched.Now()
		for _, c := range st.cells {
			n.exchangeCell(c, now)
		}
		n.scheduleExchange(st, period)
	})
}

// exchangeCell queries every neighbor of c for the round. The neighbor
// answers with its Eq. 5 contribution toward c (evaluated with c's
// T_est as of the query) and its snapshot state; the reply lands in c's
// mirror two latencies after now.
//
// The round's queries are batched into one mailbox message per
// destination shard instead of one per neighbor: the per-neighbor
// onPeerQuery calls touch disjoint neighbor state and previously
// executed back-to-back anyway (consecutive per-cell keys at one
// timestamp), so executing them in local-index order inside a single
// delivery preserves the exact event order while cutting mailbox
// traffic per exchange round from degree messages to the number of
// neighboring shards. Exchange accounting stays per query — Exchanges
// counts information exchanges, not transport messages.
func (n *Network) exchangeCell(c *cell, now float64) {
	test := c.engine.Test()
	deg := n.cfg.Topology.Degree(c.id)
	type query struct {
		li   topology.LocalIndex
		nbID topology.CellID
	}
	type bundle struct {
		shard   int
		queries []query
	}
	var bundles []bundle
	for i := 1; i <= deg; i++ {
		li := topology.LocalIndex(i)
		nbID, ok := n.cfg.Topology.FromLocal(c.id, li)
		if !ok {
			panic(fmt.Sprintf("cellnet: bad local index %d for cell %d", li, c.id))
		}
		c.exchanges++
		s := n.part.ShardOf(nbID)
		found := false
		for bi := range bundles {
			if bundles[bi].shard == s {
				bundles[bi].queries = append(bundles[bi].queries, query{li, nbID})
				found = true
				break
			}
		}
		if !found {
			bundles = append(bundles, bundle{shard: s, queries: []query{{li, nbID}}})
		}
	}
	srcID := c.id
	for _, b := range bundles {
		qs := b.queries
		n.send(c, qs[0].nbID, func(sim.Scheduler) {
			for _, q := range qs {
				n.onPeerQuery(srcID, q.nbID, q.li, test)
			}
		})
	}
}

// onPeerQuery answers a peer-state query at the neighbor and mails the
// reply back to the asker.
func (n *Network) onPeerQuery(srcID, nbID topology.CellID, liAtSrc topology.LocalIndex, test float64) {
	nb := n.cells[nbID]
	now := nb.sched.Now()
	toward, ok := n.cfg.Topology.LocalOf(nbID, srcID)
	if !ok {
		panic("cellnet: asymmetric neighborhood")
	}
	e := mirrorEntry{
		ok:         true,
		outgoing:   nb.engine.OutgoingReservation(now, toward, test),
		used:       nb.engine.UsedBandwidth(),
		cap:        nb.engine.Capacity(),
		lastBr:     nb.engine.LastTargetReservation(),
		maxSojourn: nb.engine.MaxSojourn(now),
	}
	n.send(nb, srcID, func(sim.Scheduler) {
		n.cells[srcID].mirror[liAtSrc] = e
	})
}
