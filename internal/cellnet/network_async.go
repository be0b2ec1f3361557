package cellnet

import (
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
//     uniform one-way SignalingLatency. At each window barrier a shard
//     merges the messages addressed to it in (time, source cell,
//     per-cell sequence) order — all shard-count independent. No message
//     allocates in steady state: exchange queries and replies are
//     recycled objects (peerQuery, peerReply) and a hand-off rides on the
//     connection's own event.
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

	// Recycled exchange messages (delayed signaling only). A message
	// object belongs to the table whose shard runs its event: it is drawn
	// from the sending cell's table and returned to the receiving cell's,
	// so no list is ever touched from two shards.
	freeQueries []*peerQuery
	freeReplies []*peerReply

	// Connection slots, under either model, by the same rule: a slot is
	// drawn by the table of the cell that admits the call and released
	// to the table whose shard runs its death. chunk is the unused tail
	// of the last chunk allocated.
	freeConns []*connection
	chunk     []connSlot
}

// peerQuery is one mailbox message of an exchange round: cell src's
// queries to those of its neighbors that live on table dst. Every field
// but fire is overwritten on reuse (li and nb up to cnt).
type peerQuery struct {
	fire sim.Event // delivers the message; built once, in newQuery
	dst  *shardState
	src  topology.CellID
	test float64 // src's T_est as of the query
	cnt  int
	li   [topology.NumHexDirs]topology.LocalIndex // each neighbor's local index at src
	nb   [topology.NumHexDirs]topology.CellID
}

// peerReply carries one neighbor's answer back to the asker's mirror.
type peerReply struct {
	fire  sim.Event // delivers the message; built once, in newReply
	asker topology.CellID
	li    topology.LocalIndex // the answering neighbor's local index at asker
	entry mirrorEntry
}

// pop takes the last message off a free list; nil when the list is empty.
func pop[T any](free *[]*T) *T {
	k := len(*free) - 1
	if k < 0 {
		return nil
	}
	m := (*free)[k]
	*free = (*free)[:k]
	return m
}

// newQuery draws a query message from st's free list, or makes one.
func (n *Network) newQuery(st *shardState) *peerQuery {
	q := pop(&st.freeQueries)
	if q == nil {
		q = &peerQuery{}
		q.fire = func(sim.Scheduler) {
			for i := 0; i < q.cnt; i++ {
				n.onPeerQuery(q.src, q.nb[i], q.li[i], q.test)
			}
			q.dst.freeQueries = append(q.dst.freeQueries, q)
		}
	}
	return q
}

// newReply draws a reply message from st's free list, or makes one.
func (n *Network) newReply(st *shardState) *peerReply {
	r := pop(&st.freeReplies)
	if r == nil {
		r = &peerReply{}
		r.fire = func(sim.Scheduler) {
			c := n.cells[r.asker]
			c.mirror[r.li] = r.entry
			c.tab.freeReplies = append(c.tab.freeReplies, r)
		}
	}
	return r
}

// send books a mailbox message from cell c to table dst with the model's
// uniform signaling latency and a (source cell, per-cell sequence)
// ordering key.
func (n *Network) send(c *cell, dst *shardState, fn sim.Event) {
	c.msgSeq++
	key := uint64(c.id)<<32 | (c.msgSeq & 0xffffffff)
	at := c.sched.Now() + n.cfg.Sharding.SignalingLatency
	c.sched.(*shard.Shard).Send(dst.idx, at, key, fn)
}

// scheduleExchange books the shard's peer-exchange rounds: each owned
// cell queries each neighbor. A round is one event per shard, not per
// cell — rounds across shards share a timestamp, which is safe because
// each cell's part touches only that cell plus the mailbox.
func (n *Network) scheduleExchange(st *shardState, period float64) {
	sched := st.cells[0].sched
	var round sim.Event
	round = func(sim.Scheduler) {
		for _, c := range st.cells {
			n.exchangeCell(c)
		}
		sched.MustAfter(period, round)
	}
	sched.MustAfter(period, round)
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
func (n *Network) exchangeCell(c *cell) {
	test := c.engine.Test()
	var buf [topology.NumHexDirs]*peerQuery
	open := buf[:0] // this round's messages, in order of first use
	for i, nbID := range n.cfg.Topology.Neighbors(c.id) {
		c.exchanges++
		dst := n.cells[nbID].tab
		var q *peerQuery
		for _, o := range open {
			if o.dst == dst {
				q = o
				break
			}
		}
		if q == nil {
			q = n.newQuery(c.tab)
			q.dst, q.src, q.test, q.cnt = dst, c.id, test, 0
			open = append(open, q)
		}
		q.li[q.cnt], q.nb[q.cnt] = topology.LocalIndex(i+1), nbID
		q.cnt++
	}
	for _, q := range open {
		n.send(c, q.dst, q.fire)
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
	r := n.newReply(nb.tab)
	r.asker, r.li = srcID, liAtSrc
	r.entry = mirrorEntry{
		ok:         true,
		outgoing:   nb.engine.OutgoingReservation(now, toward, test),
		used:       nb.engine.UsedBandwidth(),
		cap:        nb.engine.Capacity(),
		lastBr:     nb.engine.LastTargetReservation(),
		maxSojourn: nb.engine.MaxSojourn(now),
	}
	n.send(nb, n.cells[srcID].tab, r.fire)
}
