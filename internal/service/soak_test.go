// Soak harness: repeated crash-and-restart service cycles over a
// faulty signaling mesh, climbing the internal/faults chaos ladder.
// Every cycle must conserve its intake exactly, drain cleanly, flush a
// final checkpoint, and restore into the next cycle; across the whole
// soak the process must not leak goroutines or grow its heap beyond a
// fixed bound.
//
// The default run is a CI-sized smoke (a few cycles, one pass up the
// ladder). Set CELLQOS_SOAK to a duration ("60s", "10m") to keep
// cycling until the wall budget is spent: `make soak` / `make
// soak-smoke`.
package service_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/faults"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/signaling"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
)

// soakRungs is the chaos ladder: each restart cycle runs under the next
// rung's fault profile, wrapping around for long soaks. Rung 0 is
// fault-free so the first checkpoint chain starts from a clean cycle.
var soakRungs = []faults.Config{
	{},
	{Drop: 0.05},
	{Drop: 0.15, Corrupt: 0.02},
	{Drop: 0.30, Corrupt: 0.05, Delay: 200 * time.Microsecond},
}

// soakDuration returns the wall budget: the CELLQOS_SOAK duration, or
// 0 for the default smoke (one pass up the ladder, no wall target).
func soakDuration(t *testing.T) time.Duration {
	v := os.Getenv("CELLQOS_SOAK")
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		t.Fatalf("CELLQOS_SOAK=%q: %v", v, err)
	}
	return d
}

// soakDeployment is one cycle's process: signaling nodes wired through
// faults.Pipe links, exposed to the service as cells.
type soakDeployment struct {
	nodes []*signaling.BSNode
	cells []service.Cell
}

func newSoakDeployment(top *topology.Topology, rung faults.Config, seed uint64) *soakDeployment {
	d := &soakDeployment{nodes: make([]*signaling.BSNode, top.NumCells())}
	for i := range d.nodes {
		d.nodes[i] = signaling.NewBSNode(topology.CellID(i), top, core.Config{
			Capacity: 100, Admission: core.MustPolicy("AC3"), PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: 16},
		})
		// Bounded retries: under frame loss a peer query must fail fast
		// and degrade rather than stall the admission worker.
		d.nodes[i].SetCallPolicy(signaling.CallPolicy{
			Timeout: 10 * time.Millisecond, MaxAttempts: 2,
			Backoff: time.Millisecond, JitterSeed: seed,
		})
	}
	n := 0
	for _, a := range d.nodes {
		for _, nbID := range top.Neighbors(a.ID()) {
			if nbID <= a.ID() {
				continue
			}
			b := d.nodes[nbID]
			ca, cb := rung, rung
			ca.Seed = seed + uint64(n)*2 + 1
			cb.Seed = seed + uint64(n)*2 + 2
			n++
			la, lb := faults.Pipe(ca, cb)
			a.Attach(signaling.NodeID(b.ID()), la)
			b.Attach(signaling.NodeID(a.ID()), lb)
		}
	}
	for _, node := range d.nodes {
		d.cells = append(d.cells, service.Cell{Engine: node.Engine(), Peers: node.Peers()})
	}
	return d
}

func (d *soakDeployment) close() {
	for _, n := range d.nodes {
		n.Close()
	}
}

// TestSoakChaosLadder is the soak: service cycles over an increasingly
// hostile mesh, each cycle restoring the previous cycle's checkpoint
// (the crash-and-restart loop), with exact accounting and leak gates.
func TestSoakChaosLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("soak harness")
	}
	defer testleak.Check(t)()

	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	const cycleEvents = 600
	top := topology.Ring(5)
	stateDir := t.TempDir()
	w := clock.Wall{}
	start := w.Now()
	budget := soakDuration(t)
	minCycles := len(soakRungs) // at least one full pass up the ladder

	var totalEvents, totalOffered, totalHandled uint64
	simNow := 0.0
	lastSeq := uint64(0)
	for cycle := 0; cycle < minCycles || (budget > 0 && w.Since(start) < budget); cycle++ {
		rung := soakRungs[cycle%len(soakRungs)]
		dep := newSoakDeployment(top, rung, uint64(cycle)*1000+1)

		ck, err := service.NewCheckpointer(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{
			Cells:        dep.cells,
			Checkpointer: ck,
			Gate:         service.NewGate(5000, 100000, nil),
			DrainTimeout: 30 * time.Second,
			Workers:      2,
			Seed:         uint64(cycle) + 1,
			Audit:        true,
		})
		info, err := srv.Restore()
		if err != nil {
			t.Fatalf("cycle %d: restore: %v", cycle, err)
		}
		if cycle == 0 {
			if info.Found {
				t.Fatalf("cycle 0 found a checkpoint in a fresh dir: %+v", info)
			}
		} else {
			if !info.Found || info.Source != "current" {
				t.Fatalf("cycle %d: restore info %+v", cycle, info)
			}
			if info.Seq != lastSeq {
				t.Fatalf("cycle %d: restored seq %d, previous cycle wrote %d", cycle, info.Seq, lastSeq)
			}
			if info.SimNow < simNow {
				t.Fatalf("cycle %d: resume sim time %v went backward (was %v)", cycle, info.SimNow, simNow)
			}
		}
		srv.SetTime(service.NewStepSource(info.SimNow, 1))

		rep := srv.Serve(cycleEvents, nil)
		dep.close()

		// Every cycle — at every rung — must conserve intake exactly,
		// drain in time, and flush its final checkpoint. Faults may
		// degrade decisions (exit 3) but never break the lifecycle.
		if rep.ExitCode != service.ExitClean && rep.ExitCode != service.ExitDegraded {
			t.Fatalf("cycle %d (rung %+v): exit %d, err %q", cycle, rung, rep.ExitCode, rep.Err)
		}
		if !rep.DrainOK || !rep.FinalFlushOK {
			t.Fatalf("cycle %d: drain %v, flush %v", cycle, rep.DrainOK, rep.FinalFlushOK)
		}
		if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
			t.Fatalf("cycle %d: conservation broke: offered %d != %d+%d+%d",
				cycle, rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
		}
		if rep.Events != cycleEvents {
			t.Fatalf("cycle %d: events %d, want %d", cycle, rep.Events, cycleEvents)
		}
		totalEvents += rep.Events
		totalOffered += rep.Offered
		totalHandled += rep.Admitted + rep.Blocked + rep.Shed
		simNow = rep.FinalSimNow
		lastSeq = rep.Seq
		t.Logf("cycle %d rung %d: exit %d, offered %d (adm %d blk %d shed %d), degraded %d, seq %d",
			cycle, cycle%len(soakRungs), rep.ExitCode, rep.Offered,
			rep.Admitted, rep.Blocked, rep.Shed, rep.Degraded, rep.Seq)
	}

	if totalOffered != totalHandled {
		t.Fatalf("soak totals: offered %d != handled %d", totalOffered, totalHandled)
	}
	if totalEvents < uint64(minCycles*cycleEvents) {
		t.Fatalf("soak ran only %d events", totalEvents)
	}

	// Heap gate: after the deployments are gone, the soak must not have
	// pinned memory proportional to its length.
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if growth := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); growth > 64<<20 {
		t.Fatalf("heap grew %d bytes over the soak (gate: 64 MiB)", growth)
	}
}

// TestSoakCorruptCheckpointMidChain: a corrupted current checkpoint
// between cycles falls back to the rotated .prev, the restore audits
// clean, and the cycle reports the degradation in its exit code.
func TestSoakCorruptCheckpointMidChain(t *testing.T) {
	defer testleak.Check(t)()
	top := topology.Ring(5)
	stateDir := t.TempDir()

	run := func(cycle int) (*service.Report, service.RestoreInfo) {
		dep := newSoakDeployment(top, faults.Config{}, uint64(cycle)*1000+1)
		defer dep.close()
		ck, err := service.NewCheckpointer(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		srv := service.New(service.Config{
			Cells: dep.cells, Checkpointer: ck,
			DrainTimeout: 30 * time.Second, Seed: uint64(cycle) + 1, Audit: true,
		})
		info, err := srv.Restore()
		if err != nil {
			t.Fatalf("cycle %d: restore: %v", cycle, err)
		}
		srv.SetTime(service.NewStepSource(info.SimNow, 1))
		return srv.Serve(400, nil), info
	}

	// Two clean cycles build the current + prev pair.
	if rep, _ := run(0); rep.ExitCode != service.ExitClean {
		t.Fatalf("cycle 0 exit %d (%s)", rep.ExitCode, rep.Err)
	}
	if rep, _ := run(1); rep.ExitCode != service.ExitClean {
		t.Fatalf("cycle 1 exit %d (%s)", rep.ExitCode, rep.Err)
	}

	// Bit rot on the current file: the chain must survive via .prev.
	path := fmt.Sprintf("%s/checkpoint.cqsc", stateDir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil { //cellqos:allow crashorder deliberate corruption: the soak run must recover from a flipped byte
		t.Fatal(err)
	}

	rep, info := run(2)
	if info.Source != "prev" {
		t.Fatalf("restore source %q, want prev", info.Source)
	}
	if rep.ExitCode != service.ExitDegraded {
		t.Fatalf("exit %d after a prev-file restore, want %d", rep.ExitCode, service.ExitDegraded)
	}
	if !rep.DrainOK || !rep.FinalFlushOK {
		t.Fatalf("lifecycle broke: %+v", rep)
	}
}
