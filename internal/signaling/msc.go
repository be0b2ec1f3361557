package signaling

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// MSC is the Mobile Switching Center of the paper's star topology
// (Fig. 1(a)): base stations connect only to it, and it relays their
// queries to the destination BS. Every relayed query therefore costs two
// link traversals instead of one — the complexity difference between the
// star and full-mesh deployments.
type MSC struct {
	mu    sync.Mutex
	links map[NodeID]*Peer
}

// NewMSC builds an empty switching center.
func NewMSC() *MSC {
	return &MSC{links: make(map[NodeID]*Peer)}
}

// Attach registers a BS connection and starts relaying for it.
func (m *MSC) Attach(bs NodeID, conn io.ReadWriteCloser) *Peer {
	p := NewPeer(conn, m.relay)
	m.mu.Lock()
	m.links[bs] = p
	m.mu.Unlock()
	return p
}

// Close tears down all BS links.
func (m *MSC) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, p := range m.links {
		p.Close()
		delete(m.links, id)
	}
}

// relay forwards a request to its destination BS and returns that BS's
// response. The Peer layer re-stamps sequence numbers on each hop, so
// concurrent relays through the MSC do not collide.
func (m *MSC) relay(req Message) Message {
	m.mu.Lock()
	out := m.links[req.To]
	m.mu.Unlock()
	if out == nil {
		return Message{Type: MsgError, U1: 4}
	}
	resp, err := out.Call(req)
	if err != nil {
		return Message{Type: MsgError, U1: 5}
	}
	return resp
}

// --- wiring helpers ---

// ConnectMesh wires every pair of neighboring BS nodes with an in-memory
// duplex pipe (net.Pipe), the Fig. 1(b) full-mesh deployment. Use the
// TCP helpers below for real sockets.
//
//cellqos:allow unreached internal/chaos's controlBr wires its fault-free control mesh with it
func ConnectMesh(nodes []*BSNode) {
	for _, a := range nodes {
		for _, nbID := range a.top.Neighbors(a.id) {
			if nbID <= a.id {
				continue // wire each edge once
			}
			b := nodes[nbID]
			c1, c2 := net.Pipe()
			a.Attach(NodeID(b.id), c1)
			b.Attach(NodeID(a.id), c2)
		}
	}
}

// ConnectStar wires every BS node to the MSC with in-memory pipes, the
// Fig. 1(a) star deployment.
func ConnectStar(msc *MSC, nodes []*BSNode) {
	for _, n := range nodes {
		c1, c2 := net.Pipe()
		n.Attach(MSCNode, c1)
		msc.Attach(NodeID(n.id), c2)
	}
}

// --- TCP handshake ---
//
// A dialer introduces itself with a 4-byte big-endian node ID before the
// message stream starts, so the acceptor knows which cell (or the MSC)
// is on the other end.

// DialTCP connects to addr and sends the hello for node self. The caller
// then Attaches the returned conn to its node.
//
// The connection closes abortively (SO_LINGER 0: a reset, not a FIN
// exchange). A link has no graceful shutdown to protect — Close fails
// whatever is pending on both sides — and a reset from either end leaves
// no TIME_WAIT socket at the other: a node that is restarted, or
// re-dials a flapping link through the reconnect hook, does not pile
// them up on the acceptor's port (DESIGN.md §10.1 measures what a few
// thousand of those cost the next listener).
func DialTCP(addr string, self NodeID) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.SetLinger(0); err != nil {
			conn.Close()
			return nil, fmt.Errorf("signaling: dial: %w", err)
		}
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(self))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("signaling: hello: %w", err)
	}
	return conn, nil
}

// AcceptHello reads the dialer's identity from a freshly accepted conn.
func AcceptHello(conn net.Conn) (NodeID, error) {
	var hello [4]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("signaling: hello: %w", err)
	}
	return NodeID(binary.BigEndian.Uint32(hello[:])), nil
}
