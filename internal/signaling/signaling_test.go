package signaling

import (
	"bytes"
	"errors"
	"math"
	"net"
	"sync"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
)

func TestCodecRoundTrip(t *testing.T) {
	m := Message{
		Type: MsgOutgoing, Seq: 42, From: 3, To: 7,
		Now: 123.456, Test: 9, F1: -1.5, U1: 100, U2: 200, F2: 6.25,
	}
	var buf bytes.Buffer
	if err := Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != frameSize {
		t.Fatalf("frame size %d, want %d", buf.Len(), frameSize)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip: got %+v want %+v", got, m)
	}
}

func TestCodecRejectsZeroType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameSize))
	if _, err := Decode(&buf); err == nil {
		t.Fatal("zero-type frame decoded")
	}
}

func TestCodecShortFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{1, 2, 3})
	if _, err := Decode(&buf); err == nil {
		t.Fatal("short frame decoded")
	}
}

// Property: arbitrary messages survive encode/decode.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(typ uint8, seq uint32, from, to uint32, now, test, f1, f2 float64, u1, u2 uint32) bool {
		if typ == 0 {
			typ = 1
		}
		m := Message{
			Type: MsgType(typ), Seq: seq, From: NodeID(from), To: NodeID(to),
			Now: now, Test: test, F1: f1, U1: u1, U2: u2, F2: f2,
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via formatting.
		eq := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		return got.Type == m.Type && got.Seq == m.Seq && got.From == m.From &&
			got.To == m.To && eq(got.Now, m.Now) && eq(got.Test, m.Test) &&
			eq(got.F1, m.F1) && got.U1 == m.U1 && got.U2 == m.U2 && eq(got.F2, m.F2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeClassification(t *testing.T) {
	if !MsgOutgoing.Request() || MsgOutgoing.Response().Request() {
		t.Fatal("request/response bits wrong")
	}
	if MsgType(MsgError).Request() {
		t.Fatal("MsgError classified as request")
	}
	if MsgOutgoing.Response() != MsgOutgoing|RespBit {
		t.Fatal("Response() wrong")
	}
}

func TestPeerCallEcho(t *testing.T) {
	c1, c2 := net.Pipe()
	server := NewPeer(c2, func(req Message) Message {
		return Message{F1: req.Test * 2}
	})
	defer server.Close()
	client := NewPeer(c1, nil)
	defer client.Close()

	resp, err := client.Call(Message{Type: MsgOutgoing, Test: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resp.F1 != 42 {
		t.Fatalf("F1 = %v, want 42", resp.F1)
	}
	if resp.Type != MsgOutgoing.Response() {
		t.Fatalf("response type %v", resp.Type)
	}
}

func TestPeerConcurrentBidirectionalCalls(t *testing.T) {
	defer testleak.Check(t)()
	c1, c2 := net.Pipe()
	mk := func(conn net.Conn) *Peer {
		return NewPeer(conn, func(req Message) Message {
			return Message{F1: req.Test + 1}
		})
	}
	a, b := mk(c1), mk(c2)
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for i := 0; i < 100; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			resp, err := a.Call(Message{Type: MsgOutgoing, Test: float64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.F1 != float64(i)+1 {
				t.Errorf("a: got %v want %v", resp.F1, i+1)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			resp, err := b.Call(Message{Type: MsgSnapshot, Test: float64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.F1 != float64(i)+1 {
				t.Errorf("b: got %v want %v", resp.F1, i+1)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPeerNilHandlerRejects(t *testing.T) {
	c1, c2 := net.Pipe()
	server := NewPeer(c2, nil)
	defer server.Close()
	client := NewPeer(c1, nil)
	defer client.Close()
	if _, err := client.Call(Message{Type: MsgSnapshot}); err == nil {
		t.Fatal("nil handler answered successfully")
	}
}

func TestPeerClosedCallFails(t *testing.T) {
	c1, c2 := net.Pipe()
	server := NewPeer(c2, nil)
	client := NewPeer(c1, nil)
	server.Close()
	client.Close()
	if _, err := client.Call(Message{Type: MsgSnapshot}); err == nil {
		t.Fatal("Call on closed peer succeeded")
	}
	select {
	case <-client.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed")
	}
}

func TestPeerCallRejectsResponseType(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	p := NewPeer(c1, nil)
	defer p.Close()
	if _, err := p.Call(Message{Type: MsgOutgoing.Response()}); err == nil {
		t.Fatal("Call accepted a response type")
	}
}

func TestPeerStats(t *testing.T) {
	c1, c2 := net.Pipe()
	server := NewPeer(c2, func(Message) Message { return Message{} })
	defer server.Close()
	client := NewPeer(c1, nil)
	defer client.Close()
	for i := 0; i < 5; i++ {
		if _, err := client.Call(Message{Type: MsgSnapshot}); err != nil {
			t.Fatal(err)
		}
	}
	if got := client.Stats().Sent.Load(); got != 5 {
		t.Fatalf("client sent %d, want 5", got)
	}
	if got := client.Stats().Received.Load(); got != 5 {
		t.Fatalf("client received %d, want 5", got)
	}
	if got := client.Stats().BytesSent.Load(); got != 5*frameSize {
		t.Fatalf("client bytes %d, want %d", got, 5*frameSize)
	}
}

// threeNodeLine builds BS nodes on Line(3) with AC2 engines and a known
// state:
//   - node 0: one 4-BU connection, history saying it hands off to cell 1
//     with sojourn 10.5 s
//   - node 2: one 1-BU connection, same shape
//   - node 1: empty
//
// At now=10 with T_est=1 the Eq. 4 window is (10, 11]: both connections
// hand off into cell 1 with probability 1, so node 1's B_r = 5.
func threeNodeLine(t *testing.T, policy string) []*BSNode {
	t.Helper()
	top := topology.Line(3)
	mk := func(id topology.CellID) *BSNode {
		return NewBSNode(id, top, core.Config{
			Capacity:   100,
			Admission:  core.MustPolicy(policy),
			PHDTarget:  0.01,
			TStart:     1,
			Estimation: predict.StationaryConfig(),
		})
	}
	nodes := []*BSNode{mk(0), mk(1), mk(2)}

	// Local index of cell 1 from cells 0 and 2 is 1 (their only neighbor).
	nodes[0].Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
	nodes[0].Engine().AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 0)
	nodes[2].Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
	nodes[2].Engine().AddConnection(2, core.ConnSpec{Min: 1, Prev: topology.Self}, 0)
	return nodes
}

// TestHandleOutgoingOnlyFromNeighbour sends MsgOutgoing straight to a
// node's handler: a neighbour gets an answer, while a non-neighbour and
// the node itself (a corrupted From) get MsgError, so the asker degrades
// through its fallback policy instead of using a bogus sum.
func TestHandleOutgoingOnlyFromNeighbour(t *testing.T) {
	n := NewBSNode(3, topology.Ring(6), core.Config{
		Capacity:   100,
		Admission:  core.MustPolicy("AC1"),
		PHDTarget:  0.01,
		TStart:     1,
		Estimation: predict.StationaryConfig(),
	})
	n.Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
	n.Engine().AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 0)
	for _, tc := range []struct {
		name    string
		from    NodeID
		wantErr bool
	}{
		{"self", 3, true},
		{"non-neighbour", 0, true},
		{"neighbour", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := n.handle(Message{Type: MsgOutgoing, From: tc.from, To: 3, Now: 10, Test: 5})
			if got := resp.Type == MsgError; got != tc.wantErr {
				t.Fatalf("From %d: reply %+v, want error %v", tc.from, resp, tc.wantErr)
			}
		})
	}
}

func TestMeshDistributedReservation(t *testing.T) {
	defer testleak.Check(t)()
	nodes := threeNodeLine(t, "AC1")
	ConnectMesh(nodes)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	br := nodes[1].Engine().ComputeTargetReservation(10, nodes[1].Peers())
	if math.Abs(br-5) > 1e-12 {
		t.Fatalf("distributed B_r = %v, want 5", br)
	}
}

func TestMeshDistributedAC2Admission(t *testing.T) {
	// AC2 at node 1 makes both neighbors recompute their own B_r, which
	// fans back into node 1 — the reentrancy that the lock discipline
	// must survive.
	nodes := threeNodeLine(t, "AC2")
	ConnectMesh(nodes)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	done := make(chan core.Decision, 1)
	go func() {
		done <- nodes[1].Engine().AdmitNew(10, 2, nodes[1].Peers())
	}()
	select {
	case d := <-done:
		if !d.Admitted || d.BrCalcs != 3 {
			t.Fatalf("AC2 distributed decision: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("distributed AC2 admission deadlocked")
	}
	// Node 1's own B_r must have been refreshed to 5: 2-BU fits under
	// 100 − 5.
	if br := nodes[1].Engine().LastTargetReservation(); math.Abs(br-5) > 1e-12 {
		t.Fatalf("node1 B_r = %v, want 5", br)
	}
}

func TestStarDistributedAC2Admission(t *testing.T) {
	defer testleak.Check(t)()
	nodes := threeNodeLine(t, "AC2")
	msc := NewMSC()
	ConnectStar(msc, nodes)
	defer msc.Close()
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	done := make(chan core.Decision, 1)
	go func() {
		done <- nodes[1].Engine().AdmitNew(10, 2, nodes[1].Peers())
	}()
	select {
	case d := <-done:
		if !d.Admitted || d.BrCalcs != 3 {
			t.Fatalf("AC2 star decision: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("star AC2 admission deadlocked")
	}
}

func TestStarCostsMoreMessagesThanMesh(t *testing.T) {
	// The same workload should move more frames in a star (every query
	// crosses two links) than in a mesh (one link).
	run := func(star bool) uint64 {
		nodes := threeNodeLine(t, "AC1")
		var msc *MSC
		if star {
			msc = NewMSC()
			ConnectStar(msc, nodes)
		} else {
			ConnectMesh(nodes)
		}
		nodes[1].Engine().ComputeTargetReservation(10, nodes[1].Peers())
		var frames uint64
		for _, n := range nodes {
			n.linkMu.Lock()
			for _, p := range n.links {
				frames += p.Stats().Sent.Load()
			}
			n.linkMu.Unlock()
		}
		if msc != nil {
			msc.mu.Lock()
			for _, p := range msc.links {
				frames += p.Stats().Sent.Load()
			}
			msc.mu.Unlock()
			msc.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
		return frames
	}
	mesh, star := run(false), run(true)
	if star <= mesh {
		t.Fatalf("star frames %d not > mesh frames %d", star, mesh)
	}
	if mesh != 4 { // 2 neighbors × (request + response)
		t.Fatalf("mesh frames = %d, want 4", mesh)
	}
	if star != 8 { // each of those crosses BS→MSC and MSC→BS
		t.Fatalf("star frames = %d, want 8", star)
	}
}

func TestRemotePeersConservativeDefaultsAfterClose(t *testing.T) {
	nodes := threeNodeLine(t, "AC1")
	ConnectMesh(nodes)
	for _, n := range nodes {
		n.Close() // kill all links
	}
	peers := nodes[1].Peers()
	if got, ok := peers.OutgoingReservation(1, 10, 5); ok || got != 0 {
		t.Fatalf("dead link reservation = %v,%v, want 0,false", got, ok)
	}
	used, capacity, br, ok := peers.Snapshot(1)
	if ok || used != 0 || capacity != 0 || br != 0 {
		t.Fatalf("dead link snapshot = %d,%d,%v,%v, want zeros and false", used, capacity, br, ok)
	}
	if m, ok := peers.MaxSojourn(1, 10); ok || m != 0 {
		t.Fatalf("dead link max sojourn = %v,%v, want 0,false", m, ok)
	}
	if _, _, _, ok := peers.RecomputeReservation(1, 10); ok {
		t.Fatal("dead link recompute reported ok")
	}
	if got, want := nodes[1].RemoteErrors(), uint64(4); got != want {
		t.Fatalf("remote errors = %d, want %d (one per failed query)", got, want)
	}
}

func TestTCPLoopbackQuery(t *testing.T) {
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

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- err
			return
		}
		remote, err := AcceptHello(conn)
		if err != nil {
			accepted <- err
			return
		}
		if remote != NodeID(1) {
			t.Errorf("hello remote = %d, want 1", remote)
		}
		n0.Attach(remote, conn)
		accepted <- nil
	}()
	conn, err := DialTCP(ln.Addr().String(), NodeID(1))
	if err != nil {
		t.Fatal(err)
	}
	n1.Attach(NodeID(0), conn)
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}

	// Seed node 0 and query it from node 1 over real TCP.
	n0.Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
	n0.Engine().AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 0)
	got, ok := n1.Peers().OutgoingReservation(1, 10, 5)
	if !ok || math.Abs(got-4) > 1e-12 {
		t.Fatalf("TCP OutgoingReservation = %v,%v, want 4,true", got, ok)
	}
}

// TestDialTCPClosesByReset: a dialed link closes abortively, so the
// acceptor's socket is torn down at once instead of lingering in
// TIME_WAIT on its port, and the acceptor's pump reports the reset as an
// ordinary peer close.
func TestDialTCPClosesByReset(t *testing.T) {
	defer testleak.Check(t)()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := DialTCP(ln.Addr().String(), NodeID(1))
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AcceptHello(accepted); err != nil {
		t.Fatal(err)
	}
	acceptor := NewPeer(accepted, nil)
	defer acceptor.Close()
	conn.Close()
	select {
	case <-acceptor.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("acceptor never saw the dialer's close")
	}
	if _, err := acceptor.Call(Message{Type: MsgSnapshot}); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("Call after the dialer's reset = %v, want ErrPeerClosed", err)
	}
	// The reset, not a FIN: a raw read on a second connection shows it.
	conn, err = DialTCP(ln.Addr().String(), NodeID(1))
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer accepted.Close()
	if _, err := AcceptHello(accepted); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := accepted.Read(make([]byte, 1)); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("read after the dialer's close = %v, want ECONNRESET", err)
	}
}

func TestCallTimeout(t *testing.T) {
	c1, c2 := net.Pipe()
	block := make(chan struct{})
	server := NewPeer(c2, func(req Message) Message {
		<-block // hold the response hostage
		return Message{}
	})
	defer server.Close()
	defer close(block)
	client := NewPeer(c1, nil)
	defer client.Close()

	wall := clock.Wall{}
	start := wall.Now()
	_, err := client.CallTimeout(Message{Type: MsgSnapshot}, 50*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if wall.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

func TestCallTimeoutZeroIsPlainCall(t *testing.T) {
	c1, c2 := net.Pipe()
	server := NewPeer(c2, func(Message) Message { return Message{F1: 9} })
	defer server.Close()
	client := NewPeer(c1, nil)
	defer client.Close()
	resp, err := client.CallTimeout(Message{Type: MsgSnapshot}, 0)
	if err != nil || resp.F1 != 9 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestCallTimeoutLateResponseDropped(t *testing.T) {
	defer testleak.Check(t)()
	c1, c2 := net.Pipe()
	release := make(chan struct{})
	server := NewPeer(c2, func(req Message) Message {
		if req.Test == 1 {
			<-release
		}
		return Message{F1: req.Test}
	})
	defer server.Close()
	client := NewPeer(c1, nil)
	defer client.Close()

	if _, err := client.CallTimeout(Message{Type: MsgSnapshot, Test: 1}, 30*time.Millisecond); err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
	close(release) // the stale response arrives now and must be discarded
	resp, err := client.Call(Message{Type: MsgSnapshot, Test: 2})
	if err != nil || resp.F1 != 2 {
		t.Fatalf("follow-up got %+v, %v (stale response leaked?)", resp, err)
	}
}
