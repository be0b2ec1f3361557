package signaling

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
)

// TestCallTimeoutSemantics pins CallTimeout's contract, per case: the
// error returned, the Stats.Timeouts count, and — crucially — that a
// later call never receives an earlier call's (possibly late) response.
func TestCallTimeoutSemantics(t *testing.T) {
	cases := []struct {
		name         string
		hold         bool // server withholds the first response until released
		timeout      time.Duration
		wantErr      error
		wantTimeouts uint64
	}{
		{"response-in-time", false, 200 * time.Millisecond, nil, 0},
		{"zero-timeout-degrades-to-plain-call", false, 0, nil, 0},
		{"deadline-expires", true, 30 * time.Millisecond, ErrTimeout, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			release := make(chan struct{})
			server := NewPeer(c2, func(req Message) Message {
				if tc.hold && req.Test == 1 {
					<-release
				}
				return Message{F1: req.Test}
			})
			defer server.Close()
			client := NewPeer(c1, nil)
			defer client.Close()

			resp, err := client.CallTimeout(Message{Type: MsgSnapshot, Test: 1}, tc.timeout)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if err == nil && resp.F1 != 1 {
				t.Fatalf("resp.F1 = %v, want 1", resp.F1)
			}
			if got := client.Stats().Timeouts.Load(); got != tc.wantTimeouts {
				t.Fatalf("Timeouts = %d, want %d", got, tc.wantTimeouts)
			}

			// Release any held response; the stale frame must be dropped,
			// and a follow-up call must get its own answer.
			close(release)
			resp, err = client.Call(Message{Type: MsgSnapshot, Test: 2})
			if err != nil || resp.F1 != 2 {
				t.Fatalf("follow-up = %+v, %v (stale response leaked?)", resp, err)
			}
			if got := client.Stats().Timeouts.Load(); got != tc.wantTimeouts {
				t.Fatalf("Timeouts after follow-up = %d, want %d", got, tc.wantTimeouts)
			}
		})
	}
}

// TestCallPolicyDelay pins the exponential backoff schedule.
func TestCallPolicyDelay(t *testing.T) {
	cp := CallPolicy{Backoff: 300 * time.Millisecond}
	want := []time.Duration{
		300 * time.Millisecond, 600 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := cp.delay(i + 1); got != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := (CallPolicy{}).delay(1); got != 0 {
		t.Fatalf("zero-policy delay = %v, want 0", got)
	}
	// A huge retry index must not shift into a negative duration.
	if got := cp.delay(70); got != time.Second {
		t.Fatalf("overflowed delay = %v, want cap", got)
	}
}

// TestBreakerStateMachine walks the closed → open → half-open cycle on a
// fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(3, time.Second)
	b.SetClock(func() time.Time { return now })

	// Two failures stay under the threshold.
	b.Record(false)
	b.Record(false)
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed+allowing", b.State())
	}
	// A success resets the streak: two more failures still don't open.
	b.Record(true)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("streak not reset by success: %v", b.State())
	}
	// Third consecutive failure opens.
	b.Record(false)
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state = %v opens = %d, want open/1", b.State(), b.Opens())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a call before cooldown")
	}
	// Cooldown elapses: exactly one probe goes through.
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	// Probe fails: re-open and wait out another cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state = %v opens = %d, want open/2", b.State(), b.Opens())
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("probe rejected after second cooldown")
	}
	// Probe succeeds: closed and fully allowing again.
	b.Record(true)
	if b.State() != BreakerClosed || !b.Allow() || !b.Allow() {
		t.Fatalf("state = %v, want closed and allowing", b.State())
	}
}

// resilienceNode builds a lone BSNode on a 2-cell line whose only
// neighbor (cell 0) is played by a raw Peer with a scripted handler.
func resilienceNode(t *testing.T, handler Handler) (*BSNode, *Peer) {
	t.Helper()
	top := topology.Line(2)
	n := NewBSNode(1, top, core.Config{
		Capacity: 100, Admission: core.MustPolicy("AC1"), PHDTarget: 0.01, TStart: 1,
		Estimation: predict.StationaryConfig(),
	})
	c1, c2 := net.Pipe()
	n.Attach(NodeID(0), c1)
	server := NewPeer(c2, handler)
	t.Cleanup(func() { n.Close(); server.Close() })
	return n, server
}

// TestCallRetriesUntilSuccess verifies the bounded-retry path: two
// attempts miss their deadline, the third lands, and the link's Retries
// and Timeouts counters record exactly that.
func TestCallRetriesUntilSuccess(t *testing.T) {
	// resilienceNode tears down via t.Cleanup, so the leak check must
	// also run at cleanup time (cleanups run LIFO: close, then verify).
	testleak.CheckCleanup(t)
	var calls atomic.Int32
	n, _ := resilienceNode(t, func(req Message) Message {
		if calls.Add(1) < 3 {
			time.Sleep(300 * time.Millisecond) // miss the per-attempt deadline
		}
		return Message{F1: 7}
	})
	n.SetCallPolicy(CallPolicy{Timeout: 40 * time.Millisecond, MaxAttempts: 3, Backoff: time.Millisecond, JitterSeed: 1})

	got, ok := n.Peers().OutgoingReservation(1, 0, 1)
	if !ok || got != 7 {
		t.Fatalf("OutgoingReservation = %v,%v, want 7,true", got, ok)
	}
	st := n.Link(NodeID(0)).Stats()
	if r := st.Retries.Load(); r != 2 {
		t.Fatalf("Retries = %d, want 2", r)
	}
	if to := st.Timeouts.Load(); to != 2 {
		t.Fatalf("Timeouts = %d, want 2", to)
	}
	if n.RemoteErrors() != 0 {
		t.Fatalf("RemoteErrors = %d, want 0 (the call eventually succeeded)", n.RemoteErrors())
	}
}

// TestBreakerFailsFast verifies the breaker integration: after the
// threshold of timed-out calls the breaker opens and further queries
// fail immediately without burning another deadline.
func TestBreakerFailsFast(t *testing.T) {
	testleak.CheckCleanup(t) // resilienceNode closes via t.Cleanup

	block := make(chan struct{})
	n, _ := resilienceNode(t, func(req Message) Message {
		<-block
		return Message{}
	})
	defer close(block)
	n.SetCallPolicy(CallPolicy{Timeout: 30 * time.Millisecond, MaxAttempts: 1})
	n.SetBreakerConfig(2, time.Hour)

	for i := 0; i < 2; i++ {
		if _, ok := n.Peers().OutgoingReservation(1, 0, 1); ok {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	link := n.Link(NodeID(0))
	if s := link.Breaker().State(); s != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", s)
	}
	wall := clock.Wall{}
	start := wall.Now()
	if _, ok := n.Peers().OutgoingReservation(1, 0, 1); ok {
		t.Fatal("call through an open breaker succeeded")
	}
	if d := wall.Since(start); d > 20*time.Millisecond {
		t.Fatalf("open-breaker call took %v, want fail-fast", d)
	}
	if to := link.Stats().Timeouts.Load(); to != 2 {
		t.Fatalf("Timeouts = %d, want 2 (fail-fast call must not add one)", to)
	}
	if got := n.RemoteErrors(); got != 3 {
		t.Fatalf("RemoteErrors = %d, want 3", got)
	}
	if opens := link.Breaker().Opens(); opens != 1 {
		t.Fatalf("breaker opens = %d, want 1", opens)
	}
}

// TestReconnectHookRestoresLink kills the only link to a neighbor, then
// verifies the reconnect hook transparently restores service.
func TestReconnectHookRestoresLink(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Line(2)
	mk := func(id topology.CellID) *BSNode {
		return NewBSNode(id, top, core.Config{
			Capacity: 100, Admission: core.MustPolicy("AC1"), PHDTarget: 0.01, TStart: 1,
			Estimation: predict.StationaryConfig(),
		})
	}
	n0, n1 := mk(0), mk(1)
	defer n0.Close()
	defer n1.Close()
	c0, c1 := net.Pipe()
	n0.Attach(NodeID(1), c0)
	n1.Attach(NodeID(0), c1)
	n0.Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
	n0.Engine().AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 0)

	if got, ok := n1.Peers().OutgoingReservation(1, 10, 5); !ok || got != 4 {
		t.Fatalf("healthy query = %v,%v, want 4,true", got, ok)
	}

	// Crash the link. Without a hook the query degrades.
	n1.Link(NodeID(0)).Close()
	if _, ok := n1.Peers().OutgoingReservation(1, 10, 5); ok {
		t.Fatal("query over a dead link reported ok")
	}
	if n1.RemoteErrors() != 1 {
		t.Fatalf("RemoteErrors = %d, want 1", n1.RemoteErrors())
	}

	// Install the hook: the next query re-dials and succeeds.
	n1.SetReconnect(func(remote NodeID) (io.ReadWriteCloser, error) {
		if remote != NodeID(0) {
			t.Errorf("reconnect asked for node %d, want 0", remote)
		}
		a, b := net.Pipe()
		n0.Attach(NodeID(1), b)
		return a, nil
	})
	if got, ok := n1.Peers().OutgoingReservation(1, 10, 5); !ok || got != 4 {
		t.Fatalf("post-reconnect query = %v,%v, want 4,true", got, ok)
	}
	if got := n1.Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
	if got := n1.RemoteErrors(); got != 1 {
		t.Fatalf("RemoteErrors after heal = %d, want 1 (no new failures)", got)
	}
}
