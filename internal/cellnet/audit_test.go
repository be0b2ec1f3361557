package cellnet

import (
	"testing"

	"cellqos/internal/audit"
	"cellqos/internal/mobility"
	"cellqos/internal/wired"
)

// wantAuditViolation runs fn and asserts it panics with a *audit.Violation
// for the named invariant.
func wantAuditViolation(t *testing.T, invariant string, fn func()) *audit.Violation {
	t.Helper()
	var got *audit.Violation
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic, want %s violation", invariant)
			}
			v, ok := r.(*audit.Violation)
			if !ok {
				t.Fatalf("panicked with %T (%v), want *audit.Violation", r, r)
			}
			got = v
		}()
		fn()
	}()
	if got.Invariant != invariant {
		t.Fatalf("violation invariant = %q, want %q (detail: %s)", got.Invariant, invariant, got.Detail)
	}
	return got
}

// warmNetwork runs a short audited scenario until connections are live.
func warmNetwork(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := MustNew(cfg)
	n.RunUntil(300)
	if n.ActiveConnections() == 0 {
		t.Fatal("warmup produced no live connections")
	}
	return n
}

// anyLiveConn returns one live connection (deterministically the one
// with the smallest ID, so failures reproduce).
func anyLiveConn(n *Network) *connection {
	var best *connection
	for _, st := range n.tables {
		for _, c := range st.conns {
			if best == nil || c.id < best.id {
				best = c
			}
		}
	}
	return best
}

// TestAuditCatchesEngineLeak: tearing a connection down in the engine
// while the network still tracks it is exactly the class of bug the
// audit exists for — the next check trips connection-lifecycle.
func TestAuditCatchesEngineLeak(t *testing.T) {
	t.Parallel()
	n := warmNetwork(t, scenario("AC3", 200, 1.0, mobility.HighMobility, 81))
	conn := anyLiveConn(n)
	n.cells[conn.cell].engine.RemoveConnection(conn.id)
	v := wantAuditViolation(t, "connection-lifecycle", func() { n.Snapshot() })
	if v.Snapshot == "" || v.Time != 300 {
		t.Errorf("violation not located: %+v", v)
	}
}

// TestAuditCatchesLifecycleTallyDrift: births − deaths = live + in flight
// is checked under instant signaling too, where nothing is ever in
// flight. A connection that vanishes from its engine and its table
// together leaves every other ledger consistent; only the tallies notice.
func TestAuditCatchesLifecycleTallyDrift(t *testing.T) {
	t.Parallel()
	n := warmNetwork(t, scenario("AC3", 200, 1.0, mobility.HighMobility, 89))
	conn := anyLiveConn(n)
	c := n.cells[conn.cell]
	c.engine.RemoveConnection(conn.id)
	delete(c.tab.conns, conn.id)
	wantAuditViolation(t, "handoff-conservation", func() { n.Snapshot() })
}

// TestAuditCatchesPledgeCorruption: a pledge not backed by any live
// connection (the signature of a rollback bug) trips pledge-conservation.
func TestAuditCatchesPledgeCorruption(t *testing.T) {
	t.Parallel()
	n := warmNetwork(t, scenario("AC3", 200, 1.0, mobility.HighMobility, 82))
	if !n.cells[4].engine.Pledge(1) {
		t.Fatal("seeding pledge failed")
	}
	v := wantAuditViolation(t, "pledge-conservation", func() { n.Snapshot() })
	if v.Cell != "cell 4" {
		t.Errorf("violation cell = %q, want cell 4", v.Cell)
	}
}

// TestAuditCatchesCounterCorruption: Blocked running ahead of Requested
// would print P_CB > 1 in Table 2; the audit refuses to build the Result.
func TestAuditCatchesCounterCorruption(t *testing.T) {
	t.Parallel()
	n := warmNetwork(t, scenario("AC3", 200, 1.0, mobility.HighMobility, 83))
	n.cells[2].counters.Blocked = n.cells[2].counters.Requested + 1
	wantAuditViolation(t, "counter-consistency", func() { n.Snapshot() })
}

// TestAuditCatchesWiredLeak: an extra backbone reservation with no
// owning path trips wired-conservation.
func TestAuditCatchesWiredLeak(t *testing.T) {
	t.Parallel()
	cfg := scenario("AC3", 150, 1.0, mobility.HighMobility, 84)
	cfg.Backbone = wired.StarOfMSCs(cfg.Topology, 2, 1000, 5000, wired.FullReroute)
	n := warmNetwork(t, cfg)
	conn := anyLiveConn(n)
	if !cfg.Backbone.Graph().Reserve(conn.wpath, 1) {
		t.Fatal("seeding wired reservation failed")
	}
	v := wantAuditViolation(t, "wired-conservation", func() { n.Snapshot() })
	if v.Cell != "backbone" {
		t.Errorf("violation cell = %q, want backbone", v.Cell)
	}
}

// TestAuditCatchesMidRunCorruption: corruption seeded between run slices
// is caught by the event-boundary hook during the next slice, not only
// at Snapshot.
func TestAuditCatchesMidRunCorruption(t *testing.T) {
	t.Parallel()
	n := warmNetwork(t, scenario("AC3", 200, 1.0, mobility.HighMobility, 85))
	if !n.cells[0].engine.Pledge(3) {
		t.Fatal("seeding pledge failed")
	}
	wantAuditViolation(t, "pledge-conservation", func() { n.RunUntil(400) })
}

// TestAuditDoesNotPerturbResults: auditing is read-only — a run with the
// checker attached produces byte-for-byte the counters of a run without.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	t.Parallel()
	audited := scenario("AC3", 200, 0.8, mobility.HighMobility, 86)
	plain := audited
	plain.Audit = nil
	a := MustNew(audited).Run(1500)
	b := MustNew(plain).Run(1500)
	if a.Total != b.Total {
		t.Fatalf("audit perturbed the run:\n%+v\n%+v", a.Total, b.Total)
	}
}

// TestAuditSampledStillChecksSnapshot: with sparse event sampling the
// Snapshot-time check still runs in full and catches corruption.
func TestAuditSampledStillChecksSnapshot(t *testing.T) {
	t.Parallel()
	cfg := scenario("AC3", 200, 1.0, mobility.HighMobility, 87)
	cfg.Audit = &audit.Checker{EveryN: 1 << 30} // effectively never at events
	n := warmNetwork(t, cfg)
	if !n.cells[1].engine.Pledge(2) {
		t.Fatal("seeding pledge failed")
	}
	n.RunUntil(350) // sampled hook stays quiet
	wantAuditViolation(t, "pledge-conservation", func() { n.Snapshot() })
}

// TestMobSpecBackboneBlockRollsBackPledges is the regression test for a
// real leak the audit surfaced: under MobSpec with a wired backbone, a
// connection whose pledges succeeded but whose backbone route was then
// blocked left its pledges held forever. With auditing on, the leak
// would trip pledge-conservation at the next event.
func TestMobSpecBackboneBlockRollsBackPledges(t *testing.T) {
	t.Parallel()
	cfg := scenario("mob-spec", 250, 1.0, mobility.HighMobility, 88)
	cfg.MobSpecHorizon = 2
	// Starved BS uplinks: plenty of wireless room, frequent wired blocks.
	cfg.Backbone = wired.StarOfMSCs(cfg.Topology, 2, 10, 5000, wired.FullReroute)
	n := MustNew(cfg)
	res := n.Run(2000)
	if res.WiredBlocked == 0 {
		t.Fatal("scenario produced no wired blocks; regression not exercised")
	}
}
