package cellnet

import (
	"fmt"

	"cellqos/internal/stats"
)

// auditNow runs the full invariant audit against the network's state at
// time now (cfg.Audit must be non-nil): after an event under instant
// signaling, at a window barrier — all shards quiescent, outboxes
// delivered — under delayed signaling. Per-engine ledger and counter
// checks delegate to the checker; the cross-layer conservation laws —
// which need the network's ownership tables — are assembled here:
//
//   - connection lifecycle: every live connection is registered in
//     exactly one engine, the one of its recorded cell. Together with
//     Σ engine connection counts == Σ table sizes that means no
//     connection leaked an engine entry on teardown and none is
//     double-registered.
//   - shard ownership: the table tracking a connection is the table of
//     the connection's cell.
//   - hand-off conservation: connections born minus connections dead
//     equals connections resident in cells plus hand-offs still in the
//     mailbox (none under instant signaling).
//   - pledge conservation: each cell's pledged pool equals the sum of
//     min-QoS bandwidth of live connections pledging there (MobSpec);
//     pledges released exactly once, never leaked past a teardown.
//   - wired conservation: backbone link usage equals the sum over live
//     paths of hops × min-QoS bandwidth; paths released exactly once.
func (n *Network) auditNow(now float64) {
	ck := n.cfg.Audit
	n.auditTick++
	// The Eq. 5 cache re-derivation repeats every cached direction's
	// from-scratch walk — by far the costliest check here — so it runs
	// on a stride of the already-sampled audit passes. The property test
	// and core unit tests cover the invariant densely; this sweep only
	// needs to catch drift in real simulation traffic eventually.
	const eq5Stride = 4
	checkEq5 := n.auditTick%eq5Stride == 0
	// Under delayed signaling a cell's neighbors legitimately read as
	// unreachable before its first exchange reply, so degraded-mode
	// accounting is expected there.
	lossless := !n.cfg.Faults.Enabled && !n.cfg.Sharding.Async()
	engineConns := 0
	pledged := make([]int, len(n.cells))
	var sys stats.Counters
	for i, c := range n.cells {
		name := fmt.Sprintf("cell %d", c.id)
		l := c.engine.Ledger()
		pledged[i] = l.Pledged
		ck.Engine(name, now, l)
		if checkEq5 {
			ck.Eq5Cache(name, now, c.engine)
		}
		ck.Counters(name, now, c.counters)
		if lossless && (l.DegradedBrCalcs != 0 || l.DegradedAdmissions != 0) {
			// A fault-free in-process network can never lose a peer
			// exchange; any degraded-mode accounting here means an
			// ok=false path fired spuriously and the fallback policy is
			// silently distorting B_r.
			ck.Failf("degraded-accounting", name, now, fmt.Sprintf("%+v", l),
				"fault-free run recorded %d degraded B_r calcs / %d degraded admissions",
				l.DegradedBrCalcs, l.DegradedAdmissions)
		}
		engineConns += l.Connections
		sys.Add(&c.counters)
	}
	ck.Counters("system", now, sys)

	live := 0
	var births, deaths, sent, recv uint64
	pledgedWant := make([]int, len(n.cells))
	wiredWant := 0
	for _, st := range n.tables {
		for id, conn := range st.conns {
			c := n.cells[conn.cell]
			if _, _, _, ok := c.engine.Connection(id); !ok {
				// With the count equality below, presence in the recorded
				// cell implies presence in exactly one cell.
				ck.Failf("connection-lifecycle", fmt.Sprintf("cell %d", conn.cell), now,
					fmt.Sprintf("conn %d bw=%d entered=%.6g", id, conn.bw, conn.enteredAt),
					"live connection %d is not registered in its cell's engine", id)
			}
			if c.tab != st {
				ck.Failf("shard-ownership", fmt.Sprintf("table %d", st.idx), now,
					fmt.Sprintf("conn %d cell=%d", id, conn.cell),
					"connection %d resides in cell %d owned by table %d, tracked by table %d",
					id, conn.cell, c.tab.idx, st.idx)
			}
			for _, pid := range conn.pledges {
				pledgedWant[pid] += conn.min
			}
			if conn.wpath.Valid() {
				wiredWant += len(conn.wpath.Links) * conn.min
			}
		}
		live += len(st.conns)
		births += st.births
		deaths += st.deaths
		sent += st.sentHO
		recv += st.recvHO
	}
	if engineConns != live {
		ck.Failf("connection-lifecycle", "system", now,
			fmt.Sprintf("engines=%d tables=%d", engineConns, live),
			"engines hold %d connection entries, ownership tables track %d", engineConns, live)
	}
	if recv > sent {
		ck.Failf("handoff-conservation", "system", now,
			fmt.Sprintf("sent=%d recv=%d", sent, recv),
			"more hand-off messages received (%d) than sent (%d)", recv, sent)
	}
	inFlight := int(sent - recv)
	if int(births)-int(deaths) != live+inFlight {
		ck.Failf("handoff-conservation", "system", now,
			fmt.Sprintf("births=%d deaths=%d live=%d inflight=%d", births, deaths, live, inFlight),
			"conservation broken: %d born - %d dead != %d resident + %d in flight",
			births, deaths, live, inFlight)
	}
	for i, c := range n.cells {
		if got := pledged[i]; got != pledgedWant[i] {
			ck.Failf("pledge-conservation", fmt.Sprintf("cell %d", c.id), now,
				fmt.Sprintf("pledged=%d expected=%d", got, pledgedWant[i]),
				"engine pledge pool %d BUs != %d BUs pledged by live connections", got, pledgedWant[i])
		}
	}
	if b := n.cfg.Backbone; b != nil {
		if got := b.Graph().TotalUsed(); got != wiredWant {
			ck.Failf("wired-conservation", "backbone", now,
				fmt.Sprintf("links=%d paths=%d", got, wiredWant),
				"backbone links carry %d BUs, live paths account for %d", got, wiredWant)
		}
	}
}
