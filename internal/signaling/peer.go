package signaling

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Stats counts traffic on one link.
type Stats struct {
	Sent, Received atomic.Uint64
	BytesSent      atomic.Uint64
	BytesReceived  atomic.Uint64
	// Timeouts counts per-attempt deadlines that expired before the
	// response arrived (the late response, if any, is dropped).
	Timeouts atomic.Uint64
	// Retries counts re-attempts issued on this link by a retrying
	// caller (BSNode's call policy); the first attempt is not a retry.
	Retries atomic.Uint64
}

// Handler answers an incoming request. It never runs on the link's read
// pump, so it may itself issue Calls on other links (a B_r recomputation
// fans out to the node's own neighbors).
type Handler func(req Message) Message

// Peer is one bidirectional message channel to another node. Both sides
// may issue requests concurrently: a read pump dispatches incoming
// requests to the handler and routes responses to waiting Calls by
// sequence number and expected type.
type Peer struct {
	conn    io.ReadWriteCloser
	handler Handler
	stats   *Stats

	writeMu sync.Mutex
	mu      sync.Mutex
	pending map[uint32]chan Message
	seq     uint32
	closed  bool
	err     error
	done    chan struct{}
	work    chan Message // readLoop → serveLoop hand-off, unbuffered

	breaker atomic.Pointer[Breaker]
}

// ErrPeerClosed is returned by Call after the link shuts down.
var ErrPeerClosed = errors.New("signaling: peer closed")

// NewPeer wraps a connection. handler answers incoming requests (nil
// means reject everything with MsgError). The read pump starts
// immediately; Close tears it down.
func NewPeer(conn io.ReadWriteCloser, handler Handler) *Peer {
	p := &Peer{
		conn:    conn,
		handler: handler,
		stats:   &Stats{},
		pending: make(map[uint32]chan Message),
		done:    make(chan struct{}),
		work:    make(chan Message),
	}
	go p.readLoop()
	return p
}

// Stats exposes the link's traffic counters.
func (p *Peer) Stats() *Stats { return p.stats }

// SetBreaker installs a circuit breaker on the link (nil removes it).
func (p *Peer) SetBreaker(b *Breaker) { p.breaker.Store(b) }

// Breaker returns the installed breaker, or nil.
func (p *Peer) Breaker() *Breaker { return p.breaker.Load() }

// Allow asks the link's breaker whether a call may proceed; a link
// without a breaker always allows.
func (p *Peer) Allow() bool {
	b := p.breaker.Load()
	return b == nil || b.Allow()
}

// Record feeds a call outcome to the link's breaker, if any.
func (p *Peer) Record(ok bool) {
	if b := p.breaker.Load(); b != nil {
		b.Record(ok)
	}
}

// Close shuts the link down; pending Calls fail with ErrPeerClosed.
func (p *Peer) Close() error {
	p.fail(ErrPeerClosed)
	return p.conn.Close()
}

func (p *Peer) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	p.err = err
	for seq, ch := range p.pending {
		close(ch)
		delete(p.pending, seq)
	}
	close(p.done)
}

func (p *Peer) send(m Message) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	// Count before writing: on synchronous transports (net.Pipe) the
	// receiver may act on the frame before a post-write increment runs,
	// making counters appear to lag. "Sent" therefore means "attempted".
	p.stats.Sent.Add(1)
	p.stats.BytesSent.Add(frameSize)
	return Encode(p.conn, m)
}

// InFlight is one request on the wire: Start registered and sent it,
// Wait collects its reply. The zero value has nothing in flight.
type InFlight struct {
	p     *Peer
	seq   uint32
	want  MsgType // the only non-error reply type this request accepts
	ch    chan Message
	timer *time.Timer // nil without a deadline
}

// ErrTimeout is returned by Wait (and CallTimeout) when the deadline
// passes.
var ErrTimeout = errors.New("signaling: call timed out")

// ErrBadReply is returned by Wait when the frame that arrived under the
// request's sequence number is not the reply to its type — a type byte
// flipped in transit (frames carry no checksum) must not have its
// fields read as another query's answer.
var ErrBadReply = errors.New("signaling: reply type does not match request")

// Start registers a request and puts it on the wire without waiting for
// the reply, so a caller can have several links busy at once. A
// positive timeout starts the deadline here, once the frame is written,
// not when Wait is called: Wait fails with ErrTimeout once it passes.
// Every successful Start must be followed by one Wait.
func (p *Peer) Start(req Message, timeout time.Duration) (InFlight, error) {
	if !req.Type.Request() {
		return InFlight{}, fmt.Errorf("signaling: Call with non-request type %v", req.Type)
	}
	c := InFlight{p: p, want: req.Type.Response(), ch: make(chan Message, 1)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return InFlight{}, p.err
	}
	p.seq++
	req.Seq = p.seq
	p.pending[req.Seq] = c.ch
	p.mu.Unlock()
	c.seq = req.Seq

	if err := p.send(req); err != nil {
		c.abandon()
		return InFlight{}, err
	}
	if timeout > 0 {
		c.timer = time.NewTimer(timeout)
	}
	return c, nil
}

// abandon gives up the pending slot: a reply that still arrives is
// dropped by the pump, never delivered to a later call.
func (c InFlight) abandon() {
	c.p.mu.Lock()
	delete(c.p.pending, c.seq)
	c.p.mu.Unlock()
}

// Wait blocks until the reply arrives, the deadline given to Start
// passes (ErrTimeout; counted in Stats.Timeouts) or the link dies.
func (c InFlight) Wait() (Message, error) {
	var expired <-chan time.Time
	if c.timer != nil {
		defer c.timer.Stop()
		expired = c.timer.C
	}
	var resp Message
	var ok bool
	select {
	case resp, ok = <-c.ch:
	case <-expired:
		// A caller collecting several requests may get here long after
		// both the reply and the deadline: the reply wins.
		select {
		case resp, ok = <-c.ch:
		default:
			c.abandon()
			c.p.stats.Timeouts.Add(1)
			return Message{}, ErrTimeout
		}
	}
	switch {
	case !ok:
		return Message{}, ErrPeerClosed
	case resp.Type == MsgError:
		return Message{}, fmt.Errorf("signaling: remote error code %d", resp.U1)
	case resp.Type != c.want:
		return Message{}, fmt.Errorf("%w: got %v, want %v", ErrBadReply, resp.Type, c.want)
	}
	return resp, nil
}

// Call sends a request and blocks until its response arrives or the link
// dies.
func (p *Peer) Call(req Message) (Message, error) { return p.CallTimeout(req, 0) }

// CallTimeout is Call with a deadline: if the response does not arrive
// in time it returns ErrTimeout and abandons the pending slot (a late
// response is dropped by the pump). A zero or negative timeout blocks
// until the link dies.
func (p *Peer) CallTimeout(req Message, timeout time.Duration) (Message, error) {
	c, err := p.Start(req, timeout)
	if err != nil {
		return Message{}, err
	}
	return c.Wait()
}

// readLoop pumps incoming frames: responses are matched to pending
// Calls; requests go to the link's parked serve goroutine when it is
// idle and to a fresh goroutine when it is busy. The pump itself never
// serves: a handler fans out further Calls, and over a synchronous
// transport (net.Pipe) two pumps writing replies to each other would
// deadlock.
func (p *Peer) readLoop() {
	serving := false // the first request starts the serve goroutine
	for {
		m, err := Decode(p.conn)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed), errors.Is(err, io.ErrClosedPipe),
				errors.Is(err, syscall.ECONNRESET): // a DialTCP link closes by reset
				p.fail(ErrPeerClosed)
			default:
				p.fail(fmt.Errorf("signaling: read: %w", err))
			}
			return
		}
		p.stats.Received.Add(1)
		p.stats.BytesReceived.Add(frameSize)
		if m.Type.Request() {
			select {
			case p.work <- m:
			default:
				if serving {
					go p.serve(m)
				} else {
					serving = true
					go p.serveLoop(m)
				}
			}
			continue
		}
		p.mu.Lock()
		ch := p.pending[m.Seq]
		delete(p.pending, m.Seq)
		p.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// serveLoop is the link's parked serve goroutine, started by the first
// request (m) and alive until the link closes: on a link that sees one
// request at a time — the common case, a neighbor asking once per
// admission test — every request is answered here, on a stack already
// grown to the handler's depth, instead of on a goroutine created and
// torn down per frame.
func (p *Peer) serveLoop(m Message) {
	for {
		p.serve(m)
		select {
		case m = <-p.work:
		case <-p.done:
			return
		}
	}
}

func (p *Peer) serve(req Message) {
	var resp Message
	if p.handler == nil {
		resp = Message{Type: MsgError, U1: 1}
	} else {
		resp = p.handler(req)
	}
	resp.Seq = req.Seq
	resp.From, resp.To = req.To, req.From
	if resp.Type != MsgError {
		resp.Type = req.Type.Response()
	}
	_ = p.send(resp) // a dead link is detected by the read loop
}

// Done is closed when the link shuts down.
func (p *Peer) Done() <-chan struct{} { return p.done }
