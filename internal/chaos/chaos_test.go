// Package chaos proves the distributed signaling plane degrades
// predictably and reconverges after healing. Each test builds a control
// deployment (no faults) and a chaos deployment (internal/faults links)
// with byte-identical engine state, scripts partitions or crashes,
// asserts exact degraded-mode counters during the outage, heals, and
// requires the chaos plane to reconverge to the control plane's B_r.
// Every test also checks the audit invariants on the final ledgers and
// that no goroutines leak past teardown. CI runs this package under
// -race with -count=2 (the chaos Makefile target).
package chaos

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"

	"cellqos/internal/audit"
	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/faults"
	"cellqos/internal/predict"
	"cellqos/internal/signaling"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
)

// engineConfig is the shared per-node engine shape (AC1, paper
// constants, default decay fallback).
func engineConfig() core.Config {
	return core.Config{
		Capacity:   100,
		Admission:  core.MustPolicy("AC1"),
		PHDTarget:  0.01,
		TStart:     1,
		Estimation: predict.StationaryConfig(),
	}
}

// seedRing gives every ring node one connection and a departure history
// toward its local-1 neighbor with sojourn 10.5 s, so at now=10 with
// T_est=1 each Eq. 5 term is exactly the sending cell's connection
// bandwidth — deterministic, distinct per node (bw = 1+id).
func seedRing(nodes []*signaling.BSNode) {
	for i, n := range nodes {
		n.Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
		n.Engine().AddConnection(core.ConnID(i+1), core.ConnSpec{Min: 1 + i, Prev: topology.Self}, 0)
	}
}

func ringNodes(top *topology.Topology) []*signaling.BSNode {
	nodes := make([]*signaling.BSNode, top.NumCells())
	for i := range nodes {
		nodes[i] = signaling.NewBSNode(topology.CellID(i), top, engineConfig())
	}
	return nodes
}

func closeAll(nodes []*signaling.BSNode) {
	for _, n := range nodes {
		n.Close()
	}
}

// computeAll recomputes B_r on every node sequentially.
func computeAll(nodes []*signaling.BSNode, now float64) []float64 {
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		out[i] = n.Engine().ComputeTargetReservation(now, n.Peers())
	}
	return out
}

// controlBr runs the never-faulted deployment and returns its B_r
// vector at now=10.
func controlBr(t *testing.T, top *topology.Topology) []float64 {
	t.Helper()
	nodes := ringNodes(top)
	seedRing(nodes)
	signaling.ConnectMesh(nodes)
	defer closeAll(nodes)
	br := computeAll(nodes, 10)
	sum := 0.0
	for _, v := range br {
		sum += v
	}
	if sum == 0 {
		t.Fatal("control deployment produced an all-zero B_r vector — seeding broken")
	}
	return br
}

// connectMeshFaulty wires a mesh like signaling.ConnectMesh but routes
// every pipe end through a faults.Link; the returned map is keyed
// "a->b" for the link carrying a's writes toward b.
func connectMeshFaulty(nodes []*signaling.BSNode, top *topology.Topology,
	cfg func(a, b topology.CellID) faults.Config) map[string]*faults.Link {
	links := make(map[string]*faults.Link)
	for _, a := range nodes {
		for _, nbID := range top.Neighbors(a.ID()) {
			if nbID <= a.ID() {
				continue
			}
			b := nodes[nbID]
			la, lb := faults.Pipe(cfg(a.ID(), b.ID()), cfg(b.ID(), a.ID()))
			a.Attach(signaling.NodeID(b.ID()), la)
			b.Attach(signaling.NodeID(a.ID()), lb)
			links[fmt.Sprintf("%d->%d", a.ID(), b.ID())] = la
			links[fmt.Sprintf("%d->%d", b.ID(), a.ID())] = lb
		}
	}
	return links
}

// checkLedgers runs the audit invariants on every node's final ledger.
func checkLedgers(t *testing.T, nodes []*signaling.BSNode, now float64) {
	t.Helper()
	ck := &audit.Checker{}
	for _, n := range nodes {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("audit violation at node %d: %v", n.ID(), r)
				}
			}()
			ck.Engine(fmt.Sprintf("cell %d", n.ID()), now, n.Engine().Ledger())
		}()
	}
}

func eq(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

// TestChaosMeshPartitionHealReconverges scripts a one-way partition on
// one mesh edge, asserts exact RemoteErrors/Timeouts during the outage
// and that the decay fallback holds B_r at its last-known value, then
// heals and requires exact reconvergence with the never-faulted run.
func TestChaosMeshPartitionHealReconverges(t *testing.T) {
	top := topology.Ring(5)
	want := controlBr(t, top)
	defer testleak.Check(t)()

	nodes := ringNodes(top)
	seedRing(nodes)
	links := connectMeshFaulty(nodes, top, func(a, b topology.CellID) faults.Config {
		return faults.Config{} // partitions are scripted below
	})
	for _, n := range nodes {
		n.SetCallPolicy(signaling.CallPolicy{
			Timeout: 40 * time.Millisecond, MaxAttempts: 2,
			Backoff: time.Millisecond, JitterSeed: 7,
		})
	}

	// Healthy phase: identical to control, nothing degraded.
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("healthy mesh B_r = %v, want %v", got, want)
	}
	for _, n := range nodes {
		if n.Engine().BrDegraded() || n.RemoteErrors() != 0 {
			t.Fatalf("node %d degraded in the healthy phase", n.ID())
		}
	}

	// Outage: black-hole everything node 0 writes on the (0,1) edge —
	// its requests to node 1 AND its responses to node 1's requests.
	links["0->1"].Partition()
	during := computeAll(nodes, 10)
	// The decay fallback substitutes the last-known Eq. 5 value, and at
	// unchanged `now` the decay factor is 1: B_r must HOLD at the
	// control value rather than collapse toward zero — that is the
	// graceful-degradation contract.
	if !eq(during, want) {
		t.Fatalf("B_r during partition = %v, want held at %v", during, want)
	}
	for _, n := range nodes {
		wantErrs, wantDegraded := uint64(0), false
		if n.ID() == 0 || n.ID() == 1 {
			wantErrs, wantDegraded = 1, true // exactly the one dark neighbor
		}
		if got := n.RemoteErrors(); got != wantErrs {
			t.Fatalf("node %d RemoteErrors = %d, want %d", n.ID(), got, wantErrs)
		}
		if got := n.Engine().BrDegraded(); got != wantDegraded {
			t.Fatalf("node %d BrDegraded = %v, want %v", n.ID(), got, wantDegraded)
		}
	}
	// Both attempts of each failed call timed out on the edge's links.
	if got := nodes[0].Link(signaling.NodeID(1)).Stats().Timeouts.Load(); got != 2 {
		t.Fatalf("node 0 link timeouts = %d, want 2", got)
	}
	if got := nodes[1].Link(signaling.NodeID(0)).Stats().Timeouts.Load(); got != 2 {
		t.Fatalf("node 1 link timeouts = %d, want 2", got)
	}

	// Heal: the next computation must reconverge exactly, degraded
	// flags must clear, and no further errors accrue.
	links["0->1"].Heal()
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("B_r after heal = %v, want %v", got, want)
	}
	for _, n := range nodes {
		if n.Engine().BrDegraded() {
			t.Fatalf("node %d still degraded after heal", n.ID())
		}
	}
	if got := nodes[0].RemoteErrors() + nodes[1].RemoteErrors(); got != 2 {
		t.Fatalf("post-heal total RemoteErrors = %d, want 2 (no new failures)", got)
	}

	checkLedgers(t, nodes, 10)
	closeAll(nodes)
}

// TestChaosMeshBreakerOpensAndRecovers drives a partitioned edge into
// the circuit breaker: exact open/probe accounting, fail-fast behavior
// while open, and recovery to the control B_r after heal + cooldown.
func TestChaosMeshBreakerOpensAndRecovers(t *testing.T) {
	top := topology.Ring(5)
	want := controlBr(t, top)
	defer testleak.Check(t)()

	nodes := ringNodes(top)
	seedRing(nodes)
	links := connectMeshFaulty(nodes, top, func(a, b topology.CellID) faults.Config {
		return faults.Config{}
	})
	const cooldown = 80 * time.Millisecond
	for _, n := range nodes {
		n.SetCallPolicy(signaling.CallPolicy{Timeout: 30 * time.Millisecond, MaxAttempts: 1, JitterSeed: 7})
		n.SetBreakerConfig(2, cooldown)
	}
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("healthy mesh B_r = %v, want %v", got, want)
	}

	links["0->1"].Partition()
	node0 := nodes[0]
	// Two failed computations trip the threshold-2 breaker on 0→1.
	for i := 0; i < 2; i++ {
		node0.Engine().ComputeTargetReservation(10, node0.Peers())
	}
	link := node0.Link(signaling.NodeID(1))
	if s := link.Breaker().State(); s != signaling.BreakerOpen {
		t.Fatalf("breaker state after 2 failures = %v, want open", s)
	}
	if got := link.Breaker().Opens(); got != 1 {
		t.Fatalf("breaker opens = %d, want 1", got)
	}
	if got := node0.RemoteErrors(); got != 2 {
		t.Fatalf("RemoteErrors = %d, want 2", got)
	}
	// While open, the dark neighbor is skipped without burning a
	// timeout; B_r still holds via the decay fallback.
	wall := clock.Wall{}
	start := wall.Now()
	br := node0.Engine().ComputeTargetReservation(10, node0.Peers())
	if d := wall.Since(start); d > cooldown {
		t.Fatalf("open-breaker computation took %v, want fail-fast", d)
	}
	if math.Abs(br-want[0]) > 1e-12 {
		t.Fatalf("open-breaker B_r = %v, want held at %v", br, want[0])
	}
	if got := link.Stats().Timeouts.Load(); got != 2 {
		t.Fatalf("link timeouts = %d, want 2 (fail-fast adds none)", got)
	}
	if got := node0.RemoteErrors(); got != 3 {
		t.Fatalf("RemoteErrors after fail-fast = %d, want 3", got)
	}

	// Heal, wait out the cooldown: the half-open probe closes the
	// breaker and the plane reconverges exactly.
	links["0->1"].Heal()
	time.Sleep(cooldown + 20*time.Millisecond)
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("B_r after heal = %v, want %v", got, want)
	}
	if s := link.Breaker().State(); s != signaling.BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", s)
	}
	for _, n := range nodes {
		if n.Engine().BrDegraded() {
			t.Fatalf("node %d still degraded after recovery", n.ID())
		}
	}

	checkLedgers(t, nodes, 10)
	closeAll(nodes)
}

// TestChaosMeshCrashReconnect crashes a link outright (connection
// closed, read pumps die) and verifies the reconnect hook restores the
// mesh transparently: the very next computation re-dials and matches
// the control B_r with zero RemoteErrors.
func TestChaosMeshCrashReconnect(t *testing.T) {
	top := topology.Ring(5)
	want := controlBr(t, top)
	defer testleak.Check(t)()

	nodes := ringNodes(top)
	seedRing(nodes)
	links := connectMeshFaulty(nodes, top, func(a, b topology.CellID) faults.Config {
		return faults.Config{}
	})
	for _, n := range nodes {
		n.SetCallPolicy(signaling.CallPolicy{Timeout: 100 * time.Millisecond, MaxAttempts: 2, Backoff: 5 * time.Millisecond, JitterSeed: 3})
	}
	nodes[0].SetReconnect(func(remote signaling.NodeID) (io.ReadWriteCloser, error) {
		a, b := faults.Pipe(faults.Config{}, faults.Config{})
		nodes[remote].Attach(signaling.NodeID(0), b)
		return a, nil
	})

	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("healthy mesh B_r = %v, want %v", got, want)
	}

	// Crash the (0,1) link and wait for both read pumps to notice.
	links["0->1"].Fail()
	for _, pair := range []struct {
		n  *signaling.BSNode
		to signaling.NodeID
	}{{nodes[0], 1}, {nodes[1], 0}} {
		select {
		case <-pair.n.Link(pair.to).Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("node %d link never observed the crash", pair.n.ID())
		}
	}

	// Node 0's next computation re-dials mid-call and succeeds.
	br := nodes[0].Engine().ComputeTargetReservation(10, nodes[0].Peers())
	if math.Abs(br-want[0]) > 1e-12 {
		t.Fatalf("post-crash B_r = %v, want %v", br, want[0])
	}
	if got := nodes[0].Reconnects(); got != 1 {
		t.Fatalf("Reconnects = %d, want 1", got)
	}
	if got := nodes[0].RemoteErrors(); got != 0 {
		t.Fatalf("RemoteErrors = %d, want 0 (reconnect saved the call)", got)
	}
	// The replacement link serves node 1's queries of node 0 too.
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("B_r after reconnect = %v, want %v", got, want)
	}

	checkLedgers(t, nodes, 10)
	closeAll(nodes)
}

// TestChaosStarPartitionHeal runs the Fig. 1(a) star deployment: one
// BS's uplink to the MSC goes dark one-way, queries involving it fail
// with exact counts (including MSC-relayed ones from other cells),
// and after healing the star reconverges to the control values.
func TestChaosStarPartitionHeal(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Line(3)
	mk := func() []*signaling.BSNode {
		nodes := make([]*signaling.BSNode, 3)
		for i := range nodes {
			nodes[i] = signaling.NewBSNode(topology.CellID(i), top, engineConfig())
		}
		// threeNodeLine shape: at now=10, T_est=1, node 1's B_r = 4+1.
		nodes[0].Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
		nodes[0].Engine().AddConnection(1, core.ConnSpec{Min: 4, Prev: topology.Self}, 0)
		nodes[2].Engine().RecordDeparture(predict.Quadruplet{Event: 0, Prev: topology.Self, Next: 1, Sojourn: 10.5})
		nodes[2].Engine().AddConnection(2, core.ConnSpec{Min: 1, Prev: topology.Self}, 0)
		return nodes
	}

	control := mk()
	controlMSC := signaling.NewMSC()
	signaling.ConnectStar(controlMSC, control)
	want := computeAll(control, 10)
	closeAll(control)
	controlMSC.Close()
	if want[1] != 5 {
		t.Fatalf("control star B_r[1] = %v, want 5", want[1])
	}

	nodes := mk()
	msc := signaling.NewMSC()
	uplinks := make(map[topology.CellID]*faults.Link)
	for _, n := range nodes {
		a, b := faults.Pipe(faults.Config{}, faults.Config{})
		n.Attach(signaling.MSCNode, a)
		msc.Attach(signaling.NodeID(n.ID()), b)
		uplinks[n.ID()] = a
	}
	for _, n := range nodes {
		n.SetCallPolicy(signaling.CallPolicy{Timeout: 40 * time.Millisecond, MaxAttempts: 2, Backoff: time.Millisecond, JitterSeed: 5})
	}

	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("healthy star B_r = %v, want %v", got, want)
	}

	// Node 0's uplink goes dark: its requests and its responses to
	// relayed queries both vanish.
	uplinks[0].Partition()
	during := computeAll(nodes, 10)
	if !eq(during, want) { // decay fallback at age 0 holds every value
		t.Fatalf("B_r during star partition = %v, want held at %v", during, want)
	}
	wantErrs := []uint64{1, 1, 0} // node 0: its 1 neighbor unreachable; node 1: query to 0 fails; node 2 talks only to 1
	for i, n := range nodes {
		if got := n.RemoteErrors(); got != wantErrs[i] {
			t.Fatalf("node %d RemoteErrors = %d, want %d", i, got, wantErrs[i])
		}
	}

	uplinks[0].Heal()
	if got := computeAll(nodes, 10); !eq(got, want) {
		t.Fatalf("B_r after star heal = %v, want %v", got, want)
	}
	for i, n := range nodes {
		if got := n.RemoteErrors(); got != wantErrs[i] {
			t.Fatalf("node %d RemoteErrors after heal = %d, want %d (no new failures)", i, got, wantErrs[i])
		}
		if n.Engine().BrDegraded() {
			t.Fatalf("node %d still degraded after heal", i)
		}
	}

	checkLedgers(t, nodes, 10)
	closeAll(nodes)
	msc.Close()
}

// TestChaosMeshLossySoak hammers a 30%-loss mesh with concurrent
// recomputations from every node (the -race workload), then verifies
// the plane is still sane: ledgers pass the audit, every B_r is finite,
// and — because retries make per-call failure rare but not impossible —
// repeated computation eventually reconverges to the control values.
func TestChaosMeshLossySoak(t *testing.T) {
	top := topology.Ring(5)
	want := controlBr(t, top)
	defer testleak.Check(t)()

	nodes := ringNodes(top)
	seedRing(nodes)
	connectMeshFaulty(nodes, top, func(a, b topology.CellID) faults.Config {
		return faults.Config{Seed: uint64(a)*31 + uint64(b), Drop: 0.3}
	})
	for _, n := range nodes {
		n.SetCallPolicy(signaling.CallPolicy{
			Timeout: 25 * time.Millisecond, MaxAttempts: 4,
			Backoff: time.Millisecond, JitterSeed: 11,
		})
	}

	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				br := n.Engine().ComputeTargetReservation(10, n.Peers())
				if math.IsNaN(br) || math.IsInf(br, 0) || br < 0 {
					t.Errorf("node %d produced B_r = %v under loss", n.ID(), br)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Eventual reconvergence: with 4 attempts per call the per-node
	// failure probability is a few percent; 50 rounds make a miss
	// astronomically unlikely (p < 1e-60).
	for _, n := range nodes {
		i := int(n.ID())
		ok := false
		for round := 0; round < 50; round++ {
			br := n.Engine().ComputeTargetReservation(10, n.Peers())
			if math.Abs(br-want[i]) <= 1e-12 && !n.Engine().BrDegraded() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("node %d never reconverged to %v through the lossy mesh", i, want[i])
		}
	}

	checkLedgers(t, nodes, 10)
	closeAll(nodes)
}

// serialPeers hides core.Prefetcher from the engine, which then asks
// the neighbors query by query — the path every decision took before
// the in-flight gather, and the reference for what it must decide.
type serialPeers struct{ core.Peers }

// TestChaosAC3DarkNeighborsWaitOnce partitions k of a cell's six
// neighbors and runs one AC3 admission. The gather puts every
// neighbor's query on the wire together, so the k dark ones wait out
// their deadline side by side and the admission takes one CallPolicy
// budget whatever k is; query by query it takes k. Accounting is exact:
// per dark neighbor one timeout and two failed logical queries (the
// gather, then AC3's recompute against the now-open breaker) where the
// serial path has three (snapshot, recompute, Eq. 5 term), and the
// decision, N_calc, degraded flag and held B_r equal the serial path's.
func TestChaosAC3DarkNeighborsWaitOnce(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Hex(3, 3, true)
	const timeout = 150 * time.Millisecond
	wall := clock.Wall{}

	type outcome struct {
		healthy, dark core.Decision
		br            float64
		took          time.Duration
		remoteErrs    uint64
	}
	run := func(t *testing.T, k int, serial bool) outcome {
		cfg := engineConfig()
		cfg.Admission = core.MustPolicy("AC3")
		nodes := make([]*signaling.BSNode, top.NumCells())
		for i := range nodes {
			nodes[i] = signaling.NewBSNode(topology.CellID(i), top, cfg)
		}
		seedRing(nodes)
		links := connectMeshFaulty(nodes, top, func(a, b topology.CellID) faults.Config { return faults.Config{} })
		defer closeAll(nodes)
		for _, n := range nodes {
			n.SetCallPolicy(signaling.CallPolicy{Timeout: timeout, MaxAttempts: 1})
			n.SetBreakerConfig(1, time.Hour)
		}
		node := nodes[0]
		peers := node.Peers()
		if serial {
			peers = serialPeers{peers}
		}
		var o outcome
		// A healthy admission first, so the decay fallback has a
		// last-known Eq. 5 value to hold for each neighbor.
		o.healthy = node.Engine().AdmitNew(10, 1, peers)
		healthyBr := node.Engine().LastTargetReservation()
		if healthyBr == 0 {
			t.Fatal("healthy B_r is zero — seeding broken")
		}
		// Local index 4 (west) is the neighbor whose connection hands
		// off into cell 0, so its fallback term is the one that counts.
		dark := make([]signaling.NodeID, k)
		for i := range dark {
			nb, _ := top.FromLocal(0, topology.LocalIndex(4+i))
			dark[i] = signaling.NodeID(nb)
			links[fmt.Sprintf("%d->0", nb)].Partition() // its replies to cell 0 vanish
		}
		start := wall.Now()
		o.dark = node.Engine().AdmitNew(10, 1, peers)
		o.took = wall.Since(start)
		o.br = node.Engine().LastTargetReservation()
		o.remoteErrs = node.RemoteErrors()

		if math.Abs(o.br-healthyBr) > 1e-12 {
			t.Errorf("B_r with %d dark neighbors = %v, want held at %v", k, o.br, healthyBr)
		}
		for _, nb := range dark {
			link := node.Link(nb)
			if got := link.Stats().Timeouts.Load(); got != 1 {
				t.Errorf("link to dark cell %d: %d timeouts, want 1 (later queries fail fast)", nb, got)
			}
			if got := link.Breaker().Opens(); got != 1 {
				t.Errorf("link to dark cell %d: breaker opened %d times, want 1", nb, got)
			}
		}
		if got := node.Engine().DegradedAdmissions(); got != 1 {
			t.Errorf("DegradedAdmissions = %d, want 1", got)
		}
		checkLedgers(t, nodes, 10)
		return o
	}

	for k := 1; k <= 3; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			got, ref := run(t, k, false), run(t, k, true)
			want := core.Decision{Admitted: false, BrCalcs: k + 1, Degraded: true}
			if got.dark != want || ref.dark != want {
				t.Errorf("decision in flight %+v, query by query %+v, want both %+v", got.dark, ref.dark, want)
			}
			if got.healthy != ref.healthy || got.healthy.Degraded {
				t.Errorf("healthy decision in flight %+v, query by query %+v", got.healthy, ref.healthy)
			}
			if got.br != ref.br {
				t.Errorf("held B_r in flight %v, query by query %v", got.br, ref.br)
			}
			if got.remoteErrs != uint64(2*k) || ref.remoteErrs != uint64(3*k) {
				t.Errorf("RemoteErrors in flight %d, query by query %d, want %d and %d", got.remoteErrs, ref.remoteErrs, 2*k, 3*k)
			}
			// One budget, not k: under two deadlines whatever k is.
			// Query by query each dark neighbor's snapshot waits out its
			// own deadline in turn.
			if got.took >= 2*timeout {
				t.Errorf("admission with %d dark neighbors took %v, want under %v (one %v budget plus slack)", k, got.took, 2*timeout, timeout)
			}
			if ref.took < time.Duration(k)*timeout {
				t.Errorf("query by query took %v, under %d deadlines — the scenario no longer waits per neighbor", ref.took, k)
			}
		})
	}
}
