package signaling

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"cellqos/internal/core"
	"cellqos/internal/topology"
)

// CallPolicy bounds one logical peer query: each attempt gets a deadline,
// failed attempts are retried up to MaxAttempts with exponential backoff
// and deterministic jitter. The zero value degrades to the historical
// behavior — one attempt, no deadline — so existing wiring is unchanged
// until a node opts in via BSNode.SetCallPolicy.
type CallPolicy struct {
	// Timeout is the per-attempt deadline (0 = block until the link dies).
	Timeout time.Duration
	// MaxAttempts is the total number of attempts, including the first
	// (values < 1 mean 1: no retries).
	MaxAttempts int
	// Backoff is the sleep before the second attempt; it doubles per
	// further attempt, capped at maxBackoff. 0 retries immediately.
	Backoff time.Duration
	// JitterSeed seeds the node's deterministic jitter stream; each
	// backoff sleep is stretched by up to 50% drawn from that stream, so
	// two runs with the same seed de-synchronize retries identically.
	JitterSeed uint64
}

// maxBackoff caps a CallPolicy's exponential backoff growth.
const maxBackoff = time.Second

// attempts normalizes MaxAttempts.
func (cp CallPolicy) attempts() int {
	if cp.MaxAttempts < 1 {
		return 1
	}
	return cp.MaxAttempts
}

// delay computes the backoff before attempt (1-based retry index),
// without jitter.
func (cp CallPolicy) delay(retry int) time.Duration {
	if cp.Backoff <= 0 {
		return 0
	}
	d := cp.Backoff << uint(retry-1)
	if d > maxBackoff || d <= 0 { // <= 0 guards shift overflow
		d = maxBackoff
	}
	return d
}

// BSNode hosts one cell's reservation engine and speaks the signaling
// protocol: it answers neighbors' queries against its engine and
// implements core.Peers for its own engine by querying neighbors over
// attached links (directly in a mesh, via the MSC in a star).
//
// The engine is guarded by the node's mutex (passed as core.Config.Lock),
// which the engine releases across remote fan-outs — so a neighbor's
// query arriving while this node waits on that neighbor cannot deadlock.
type BSNode struct {
	id     topology.CellID
	top    *topology.Topology
	mu     sync.Mutex // engine state lock (see core.Config.Lock)
	engine *core.Engine

	linkMu sync.Mutex
	links  map[NodeID]*Peer

	// Resilience configuration: per-call retry policy, per-link breaker
	// factory, and the reconnect hook for crashed links. All set before
	// traffic starts; polMu guards the policy + jitter stream.
	polMu      sync.Mutex
	policy     CallPolicy
	jitter     *rand.Rand
	newBreaker func() *Breaker

	recMu     sync.Mutex // serializes reconnect attempts
	reconnect func(remote NodeID) (io.ReadWriteCloser, error)

	// remoteErrs counts peer queries that exhausted every attempt and
	// were answered ok=false (the engine then degrades per its fallback
	// policy). reconnects counts dead links replaced via the hook.
	remoteErrs atomic.Uint64
	reconnects atomic.Uint64
}

// NewBSNode builds a node for cell id. The config's Degree and Lock are
// filled in from the topology and the node's own mutex.
func NewBSNode(id topology.CellID, top *topology.Topology, cfg core.Config) *BSNode {
	n := &BSNode{id: id, top: top, links: make(map[NodeID]*Peer)}
	cfg.Degree = top.Degree(id)
	cfg.Lock = &n.mu
	n.engine = core.NewEngine(cfg)
	return n
}

// ID returns the node's cell ID.
func (n *BSNode) ID() topology.CellID { return n.id }

// Engine exposes the node's engine (connection management, admission).
func (n *BSNode) Engine() *core.Engine { return n.engine }

// RemoteErrors returns the count of peer queries that failed every
// attempt and degraded to the engine's fallback policy.
func (n *BSNode) RemoteErrors() uint64 { return n.remoteErrs.Load() }

// Reconnects returns how many dead links were replaced via the hook.
//
//cellqos:allow unreached internal/chaos's TestChaosMeshCrashReconnect counts the re-dials with it
func (n *BSNode) Reconnects() uint64 { return n.reconnects.Load() }

// SetCallPolicy installs the retry/deadline policy for outgoing peer
// queries and seeds the jitter stream (per-node stream split off the
// seed so identical seeds on different cells do not march in lockstep).
// Call before traffic starts.
func (n *BSNode) SetCallPolicy(p CallPolicy) {
	n.polMu.Lock()
	defer n.polMu.Unlock()
	n.policy = p
	n.jitter = rand.New(rand.NewPCG(p.JitterSeed, uint64(n.id)+0x9e3779b97f4a7c15))
}

// SetBreakerConfig installs a circuit breaker on every current and
// future link: threshold consecutive failures open it, cooldown later a
// single probe is allowed through (see Breaker). Call before traffic
// starts; threshold ≤ 0 disables breakers for future links.
func (n *BSNode) SetBreakerConfig(threshold int, cooldown time.Duration) {
	n.polMu.Lock()
	if threshold <= 0 {
		n.newBreaker = nil
	} else {
		n.newBreaker = func() *Breaker { return NewBreaker(threshold, cooldown) }
	}
	factory := n.newBreaker
	n.polMu.Unlock()
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	for _, p := range n.links {
		if factory == nil {
			p.SetBreaker(nil)
		} else {
			p.SetBreaker(factory())
		}
	}
}

// SetReconnect installs the hook used to re-dial a crashed link. When a
// query finds its link dead (read pump exited), the node asks the hook
// for a fresh connection to the same remote and attaches it in place.
// Call before traffic starts.
//
//cellqos:allow unreached internal/chaos's TestChaosMeshCrashReconnect installs its re-dial hook with it
func (n *BSNode) SetReconnect(hook func(remote NodeID) (io.ReadWriteCloser, error)) {
	n.recMu.Lock()
	defer n.recMu.Unlock()
	n.reconnect = hook
}

// callPolicy snapshots the current policy.
func (n *BSNode) callPolicy() CallPolicy {
	n.polMu.Lock()
	defer n.polMu.Unlock()
	return n.policy
}

// backoffSleep blocks for the policy's delay before the retry-th
// re-attempt, stretched by up to 50% of deterministic jitter.
func (n *BSNode) backoffSleep(pol CallPolicy, retry int) {
	d := pol.delay(retry)
	if d <= 0 {
		return
	}
	n.polMu.Lock()
	if n.jitter != nil {
		d += time.Duration(n.jitter.Int64N(int64(d)/2 + 1))
	}
	n.polMu.Unlock()
	time.Sleep(d)
}

// Attach wires a connection to a remote node (a neighbor BS in a mesh,
// or the MSC in a star) and starts answering its queries. It returns the
// peer link, whose Stats count this link's traffic. If a breaker config
// is installed the new link gets a fresh breaker.
func (n *BSNode) Attach(remote NodeID, conn io.ReadWriteCloser) *Peer {
	p := NewPeer(conn, n.handle)
	n.polMu.Lock()
	if n.newBreaker != nil {
		p.SetBreaker(n.newBreaker())
	}
	n.polMu.Unlock()
	n.linkMu.Lock()
	n.links[remote] = p
	n.linkMu.Unlock()
	return p
}

// Close tears down every link.
func (n *BSNode) Close() {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	for id, p := range n.links {
		p.Close()
		delete(n.links, id)
	}
}

// Link returns the current link to a remote node (nil if none), for
// its per-link Stats and breaker.
func (n *BSNode) Link(remote NodeID) *Peer {
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	return n.links[remote]
}

// linkDead reports whether the link's read pump has exited.
func linkDead(p *Peer) bool {
	select {
	case <-p.Done():
		return true
	default:
		return false
	}
}

// linkFor resolves the link that reaches cell nb: a direct mesh link if
// present, otherwise the MSC relay. A dead link is re-dialed through the
// reconnect hook when one is installed.
func (n *BSNode) linkFor(nb NodeID) *Peer {
	n.linkMu.Lock()
	id := nb
	p, ok := n.links[nb]
	if !ok {
		id = MSCNode
		p = n.links[MSCNode]
	}
	n.linkMu.Unlock()
	if p == nil || !linkDead(p) {
		return p
	}
	n.recMu.Lock()
	defer n.recMu.Unlock()
	if n.reconnect == nil {
		return p
	}
	// Re-check under recMu: a racing caller may have already replaced it.
	n.linkMu.Lock()
	cur := n.links[id]
	n.linkMu.Unlock()
	if cur != nil && !linkDead(cur) {
		return cur
	}
	conn, err := n.reconnect(id)
	if err != nil || conn == nil {
		return cur
	}
	n.reconnects.Add(1)
	return n.Attach(id, conn)
}

// handle answers one incoming request against the local engine. Every
// (used, capacity, B_r) triple is one Engine.Snapshot — one acquisition
// of the node lock — so the node's own admission cannot move used or
// B_r^prev between the reads.
func (n *BSNode) handle(req Message) Message {
	switch req.Type {
	case MsgOutgoing, MsgRecompute, MsgMaxSojourn:
		// Frames carry no checksum. A non-finite time, or a window that
		// is not a finite non-negative length, would move the engine's
		// Eq. 5 view there and poison every later answer.
		badNow := math.IsNaN(req.Now) || math.IsInf(req.Now, 0)
		badTest := req.Type == MsgOutgoing && !(req.Test >= 0 && !math.IsInf(req.Test, 1))
		if badNow || badTest {
			return Message{Type: MsgError, U1: 6}
		}
	}
	switch req.Type {
	case MsgOutgoing:
		from := topology.CellID(req.From)
		// Only a neighbour may ask: a From naming this node itself
		// resolves to Self, which is no direction.
		toward, ok := n.top.LocalOf(n.id, from)
		if !ok || toward == topology.Self {
			return Message{Type: MsgError, U1: 2}
		}
		out := n.engine.OutgoingReservation(req.Now, toward, req.Test)
		used, capacity, lastBr := n.engine.Snapshot()
		return Message{F1: out, U1: uint32(used), U2: uint32(capacity), F2: lastBr}
	case MsgSnapshot:
		used, capacity, lastBr := n.engine.Snapshot()
		return Message{U1: uint32(used), U2: uint32(capacity), F1: lastBr}
	case MsgRecompute:
		br := n.engine.ComputeTargetReservation(req.Now, n.Peers())
		used, capacity, _ := n.engine.Snapshot()
		return Message{U1: uint32(used), U2: uint32(capacity), F1: br}
	case MsgMaxSojourn:
		return Message{F1: n.engine.MaxSojourn(req.Now)}
	default:
		return Message{Type: MsgError, U1: 3}
	}
}

// Peers returns the node's remote view of its neighbors, for passing to
// Engine.AdmitNew / ComputeTargetReservation / NoteHandOffArrival.
func (n *BSNode) Peers() core.Peers { return remotePeers{n} }

// remotePeers implements core.Peers over signaling links. Every method
// reports ok=false when the neighbor stayed unreachable through the full
// retry budget; the engine then applies its explicit degradation policy
// (core.Fallback) instead of this layer smuggling in sentinel values —
// the old +Inf MaxSojourn and "infinitely healthy" MaxInt32 snapshots.
//
// It also implements core.Prefetcher: an admission test's MsgOutgoing
// queries go to all neighbors at once and their replies carry the
// snapshots too (see Prefetch).
type remotePeers struct{ n *BSNode }

// addressed stamps req with this node as sender and neighbor li as
// destination.
func (r remotePeers) addressed(li topology.LocalIndex, req Message) Message {
	nb, ok := r.n.top.FromLocal(r.n.id, li)
	if !ok {
		panic(fmt.Sprintf("signaling: bad local index %d at cell %d", li, r.n.id))
	}
	req.From = NodeID(r.n.id)
	req.To = NodeID(nb)
	return req
}

// begin makes attempt number `attempt` (0-based) of one logical query:
// it backs off first when this is a retry, resolves the link, asks its
// breaker and puts the request on the wire. The zero InFlight means
// nothing went out — no link, breaker open (fail fast: the cooldown
// probe will test the link, not this call) or a failed send.
func (r remotePeers) begin(req Message, pol CallPolicy, attempt int) InFlight {
	if attempt > 0 {
		r.n.backoffSleep(pol, attempt)
	}
	link := r.n.linkFor(req.To)
	if link == nil {
		return InFlight{}
	}
	if attempt > 0 {
		link.Stats().Retries.Add(1)
	}
	if !link.Allow() {
		return InFlight{}
	}
	c, err := link.Start(req, pol.Timeout)
	if err != nil {
		link.Record(false)
	}
	return c
}

// finish is the retry loop of one logical query whose first attempt c
// has already begun: it waits for the attempt in flight, feeds the
// link's breaker, and on failure begins the next attempt until the
// policy's budget is spent — one exhausted budget is one RemoteErrors.
func (r remotePeers) finish(req Message, pol CallPolicy, c InFlight) (Message, bool) {
	attempt := 0
	for {
		if c.p != nil {
			resp, err := c.Wait()
			c.p.Record(err == nil)
			if err == nil {
				return resp, true
			}
		}
		attempt++
		if attempt >= pol.attempts() {
			r.n.remoteErrs.Add(1)
			return Message{}, false
		}
		c = r.begin(req, pol, attempt)
	}
}

// call runs one logical query of neighbor li to completion.
func (r remotePeers) call(li topology.LocalIndex, req Message) (Message, bool) {
	req = r.addressed(li, req)
	pol := r.n.callPolicy()
	return r.finish(req, pol, r.begin(req, pol, 0))
}

// OutgoingReservation implements core.Peers.
func (r remotePeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	resp, ok := r.call(li, Message{Type: MsgOutgoing, Now: now, Test: test})
	if !ok {
		return 0, false
	}
	return resp.F1, true
}

// Snapshot implements core.Peers.
func (r remotePeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	resp, ok := r.call(li, Message{Type: MsgSnapshot})
	if !ok {
		return 0, 0, 0, false
	}
	return int(resp.U1), int(resp.U2), resp.F1, true
}

// RecomputeReservation implements core.Peers.
func (r remotePeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	resp, ok := r.call(li, Message{Type: MsgRecompute, Now: now})
	if !ok {
		return 0, 0, 0, false
	}
	return int(resp.U1), int(resp.U2), resp.F1, true
}

// MaxSojourn implements core.Peers. The answer travels the wire as a raw
// float64; the engine-side caller clamps non-finite values, so a
// neighbor's cold-start +Inf can never inflate this cell's T_est cap.
func (r remotePeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	resp, ok := r.call(li, Message{Type: MsgMaxSojourn, Now: now})
	if !ok {
		return 0, false
	}
	return resp.F1, true
}

// prefetched is the per-call view Prefetch returns: what every neighbor
// answered to one MsgOutgoing at (now, test), over the serial per-call
// path for everything else.
type prefetched struct {
	core.Peers // the wire; only the four Peers methods are promoted, not Prefetch
	now, test  float64
	got        []gathered // by local index − 1
}

// gathered is one neighbor's reply; ok=false means its whole retry
// budget failed, and neither answer may be used.
type gathered struct {
	out            float64
	used, capacity int
	lastBr         float64
	ok             bool
	snapshotRead   bool // the piggybacked snapshot answers once
}

// Prefetch implements core.Prefetcher. The first attempt of every
// neighbor's MsgOutgoing goes out back to back, each under the node's
// CallPolicy and its link's breaker exactly as a lone call's would, and
// each deadline running from its own send; then the replies are
// collected in local-index order, a failed first attempt continuing
// with the rest of its retry budget. A decision therefore costs one
// round trip rather than one per query per neighbor, and dark neighbors
// wait out their first deadline together.
func (r remotePeers) Prefetch(now, test float64) core.Peers {
	deg := r.n.top.Degree(r.n.id)
	v := &prefetched{Peers: r, now: now, test: test, got: make([]gathered, deg)}
	pol := r.n.callPolicy()
	req := Message{Type: MsgOutgoing, Now: now, Test: test}
	calls := make([]InFlight, deg)
	for i := range calls {
		calls[i] = r.begin(r.addressed(topology.LocalIndex(i+1), req), pol, 0)
	}
	for i, c := range calls {
		if resp, ok := r.finish(r.addressed(topology.LocalIndex(i+1), req), pol, c); ok {
			v.got[i] = gathered{out: resp.F1, used: int(resp.U1), capacity: int(resp.U2), lastBr: resp.F2, ok: true}
		}
	}
	return v
}

// OutgoingReservation answers from the gathered replies at the view's
// own (now, test); any other key is a fresh query.
func (v *prefetched) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	i := int(li) - 1
	if now != v.now || test != v.test || i < 0 || i >= len(v.got) {
		return v.Peers.OutgoingReservation(li, now, test)
	}
	return v.got[i].out, v.got[i].ok
}

// Snapshot answers each neighbor's first query from the gathered reply;
// a caller that asks again wants a fresh reading and gets one.
func (v *prefetched) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	i := int(li) - 1
	if i < 0 || i >= len(v.got) || v.got[i].snapshotRead {
		return v.Peers.Snapshot(li)
	}
	g := &v.got[i]
	g.snapshotRead = true
	return g.used, g.capacity, g.lastBr, g.ok
}
