package cellnet

import (
	"strings"
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/wired"
)

// A connection and a cell each reuse one event closure for life, and the
// kernel's queue slots are recycled, so a locally-deciding run (static
// reservation: no Eq. 5, no peers) allocates per connection, not per
// event. The parent of this ratchet read 2.33 allocations per event;
// the ring now reads 0 over 13,484 events, and the bound of 0.01 lets
// about 135 stray allocations through.
func TestAllocationsPerEventRatchet(t *testing.T) {
	cfg := scenario("static", 200, 0.8, mobility.HighMobility, 1)
	cfg.StaticReserve = 10
	cfg.Audit = nil
	n := MustNew(cfg)
	n.RunUntil(1000)
	end, fired0 := 1000.0, n.EventsFired()
	const runs = 5
	perRun := testing.AllocsPerRun(runs, func() {
		end += 400
		n.RunUntil(end)
	})
	events := float64(n.EventsFired()-fired0) / (runs + 1) // AllocsPerRun adds a warm-up call
	got := perRun / events
	t.Logf("%.3f allocations per fired event", got)
	if got > 0.01 {
		t.Fatalf("%.0f allocations over %.0f events, want ≤ 0.01 per event", perRun, events)
	}
}

// The cached event closure is only sound while a connection has at most
// one pending kernel event; a second booking must fail loudly.
func TestSecondPendingEventPanics(t *testing.T) {
	n := MustNew(scenario("static", 100, 1, mobility.HighMobility, 1))
	c := n.cells[0]
	n.establish(c, 1, 1, core.ClassRealTime, wired.Path{}, nil, 0)
	var conn *connection
	for _, conn = range c.tab.conns {
	}
	if !conn.pending {
		t.Fatal("establish left the connection without a pending event")
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "second pending event") {
			t.Fatalf("second booking: panic %q, want the one-pending-event guard", r)
		}
	}()
	n.scheduleDeparture(conn, conn.hop, true)
}
