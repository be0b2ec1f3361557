package service

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/testleak"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// meshCells builds a 4-cell ring of AC3 engines with a stationary
// estimator capped at nquad quadruplets per pair. Each engine gets its
// own lock so worker goroutines and the drive loop can interleave; the
// engines never hold a lock across a peer call, so per-engine locks
// cannot deadlock.
func meshCells(nquad int) []Cell {
	return NewMeshCells(topology.Ring(4), func(id topology.CellID, degree int) *core.Engine {
		return core.NewEngine(core.Config{
			Capacity: 100, Degree: degree, Admission: core.MustPolicy("AC3"),
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: nquad},
			Lock:       &sync.Mutex{},
		})
	})
}

// TestServeDeterministicDrive: a bounded inline drive conserves its
// intake exactly, checkpoints on the paced cadence, and exits clean.
func TestServeDeterministicDrive(t *testing.T) {
	defer testleak.Check(t)()
	ck, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mc := clock.NewManual(time.Unix(0, 0))
	srv := New(Config{
		Cells:           meshCells(32),
		Time:            NewStepSource(0, 1),
		Clock:           mc,
		Checkpointer:    ck,
		CheckpointEvery: 10 * time.Millisecond,
		Pace:            time.Millisecond, // advances the Manual clock: checkpoint every 10 events
		Seed:            42,
		Audit:           true,
	})
	rep := srv.Serve(400, nil)

	if rep.ExitCode != ExitClean {
		t.Fatalf("exit = %d (err %q), want clean", rep.ExitCode, rep.Err)
	}
	if rep.Events != 400 {
		t.Fatalf("events = %d, want 400", rep.Events)
	}
	if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
		t.Fatalf("conservation: offered %d != admitted %d + blocked %d + shed %d",
			rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	}
	if rep.Offered != 100 || rep.HandOffs != 300 {
		t.Fatalf("offered %d / hand-offs %d, want 100 / 300 (NewCallEvery=4)", rep.Offered, rep.HandOffs)
	}
	if rep.Shed != 0 || rep.Degraded != 0 {
		t.Fatalf("shed %d / degraded %d on an unloaded in-process mesh", rep.Shed, rep.Degraded)
	}
	if !rep.DrainOK || !rep.FinalFlushOK {
		t.Fatalf("drain %v / flush %v", rep.DrainOK, rep.FinalFlushOK)
	}
	// Pace 1 ms × 400 events at a 10 ms cadence → ~40 periodic cuts
	// plus the final flush, numbered consecutively.
	if rep.Checkpoints < 10 {
		t.Fatalf("checkpoints = %d, want the periodic cadence to fire", rep.Checkpoints)
	}
	if rep.Seq != rep.Checkpoints {
		t.Fatalf("seq %d != checkpoints %d", rep.Seq, rep.Checkpoints)
	}
	snap, source, err := ck.Load()
	if err != nil || source != "current" {
		t.Fatalf("load after serve: source %q err %v", source, err)
	}
	if snap.SimNow != rep.FinalSimNow {
		t.Fatalf("final checkpoint SimNow %v != report %v", snap.SimNow, rep.FinalSimNow)
	}
}

// TestServeStopChannel: a stop signal pending before the first event
// still shuts down gracefully (budget 0 means "until stopped").
func TestServeStopChannel(t *testing.T) {
	defer testleak.Check(t)()
	stop := make(chan struct{})
	close(stop)
	srv := New(Config{Cells: meshCells(32), Time: NewStepSource(0, 1), Clock: clock.NewManual(time.Unix(0, 0))})
	rep := srv.Serve(0, stop)
	if rep.Events != 0 {
		t.Fatalf("events = %d after pre-closed stop", rep.Events)
	}
	if rep.ExitCode != ExitClean {
		t.Fatalf("exit = %d, want clean", rep.ExitCode)
	}
}

// TestServeWorkersDrainCleanly: the production shape — admissions on a
// worker pool — still conserves intake exactly and drains at shutdown.
func TestServeWorkersDrainCleanly(t *testing.T) {
	defer testleak.Check(t)()
	srv := New(Config{
		Cells:   meshCells(32),
		Time:    NewStepSource(0, 1),
		Workers: 4,
		Seed:    7,
		Audit:   true,
	})
	rep := srv.Serve(2000, nil)
	if rep.ExitCode != ExitClean {
		t.Fatalf("exit = %d (err %q), want clean", rep.ExitCode, rep.Err)
	}
	if !rep.DrainOK {
		t.Fatal("drain failed")
	}
	if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
		t.Fatalf("conservation: offered %d != admitted %d + blocked %d + shed %d",
			rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	}
	if rep.Offered != 500 {
		t.Fatalf("offered = %d, want 500", rep.Offered)
	}
}

// TestServeWorkersNearCapacity: four workers admitting into two small
// cells that stay nearly full. An engine takes one admission at a time,
// and decide and commit must be one step: two workers that both pass the
// test on the last free BUs would over-commit the cell (AddConnection
// panics "over capacity"), and the engine's reusable decision context is
// not shareable either — run under -race.
func TestServeWorkersNearCapacity(t *testing.T) {
	defer testleak.Check(t)()
	cells := NewMeshCells(topology.Line(2), func(id topology.CellID, degree int) *core.Engine {
		return core.NewEngine(core.Config{
			Capacity: 12, Degree: degree, Admission: core.MustPolicy("AC3"),
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: 32},
			Lock:       &sync.Mutex{},
		})
	})
	srv := New(Config{
		Cells:        cells,
		Time:         NewStepSource(0, 1),
		Workers:      4,
		Seed:         11,
		NewCallEvery: 2,
		CallHold:     40, // ≈ 10 calls of mostly 4 BUs offered to each 12-BU cell at any time
		Audit:        true,
	})
	srv.mix = traffic.Mix{VoiceRatio: 0.2}
	rep := srv.Serve(8000, nil)
	if rep.ExitCode != ExitClean {
		t.Fatalf("exit = %d (err %q), want clean", rep.ExitCode, rep.Err)
	}
	if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
		t.Fatalf("conservation: offered %d != admitted %d + blocked %d + shed %d",
			rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	}
	if rep.Admitted == 0 || rep.Blocked == 0 {
		t.Fatalf("cells not held near capacity: admitted %d, blocked %d", rep.Admitted, rep.Blocked)
	}
}

// TestServeGateSheds: with an exhausted gate and a frozen clock, every
// new call beyond the burst is shed — counted, not lost — and the run
// reports degradation.
func TestServeGateSheds(t *testing.T) {
	defer testleak.Check(t)()
	mc := clock.NewManual(time.Unix(0, 0))
	srv := New(Config{
		Cells: meshCells(32),
		Time:  NewStepSource(0, 1),
		Clock: mc,
		Gate:  NewGate(2, 0.001, mc), // burst of 2, effectively no refill
		Seed:  42,
	})
	rep := srv.Serve(40, nil) // 10 new calls
	if rep.Offered != 10 {
		t.Fatalf("offered = %d, want 10", rep.Offered)
	}
	if rep.Shed != 8 {
		t.Fatalf("shed = %d, want 8 (burst capacity 2)", rep.Shed)
	}
	if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
		t.Fatalf("conservation: offered %d != admitted %d + blocked %d + shed %d",
			rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	}
	if rep.ExitCode != ExitDegraded {
		t.Fatalf("exit = %d, want degraded after shedding", rep.ExitCode)
	}
}

func TestServeRestoreColdStart(t *testing.T) {
	ck, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Cells: meshCells(32), Time: NewStepSource(0, 1), Checkpointer: ck})
	info, err := srv.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info.Found {
		t.Fatalf("cold start reported a restore: %+v", info)
	}
}

// TestServeRestoreRejectsCellCountMismatch: a checkpoint from a 4-cell
// deployment must not restore into a differently-shaped server.
func TestServeRestoreRejectsCellCountMismatch(t *testing.T) {
	ck, err := NewCheckpointer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Cells: meshCells(32), Time: NewStepSource(0, 1), Clock: clock.NewManual(time.Unix(0, 0)), Checkpointer: ck})
	if rep := a.Serve(40, nil); rep.ExitCode != ExitClean {
		t.Fatalf("setup serve failed: %+v", rep)
	}

	two := meshCells(32)[:2]
	b := New(Config{Cells: two, Time: NewStepSource(0, 1), Checkpointer: ck})
	_, err = b.Restore()
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("mismatched restore error = %v", err)
	}
}

// TestServeCrashRecoveryReconverges is the acceptance-criteria test at
// the package level: run a server partway, abandon it (the in-process
// stand-in for kill -9 — the cmd/bsnet test does it with a real
// SIGKILL), restore a fresh server from its checkpoint directory, and
// drive the full workload. Because the estimator selection is
// translation-invariant under a stationary configuration and the small
// NQuad cap turns the quadruplet cache over completely during the
// replay, the restored server's final B_r must match a never-crashed
// control to floating-point noise, and a live admission probe must
// decide identically.
func TestServeCrashRecoveryReconverges(t *testing.T) {
	defer testleak.Check(t)()
	const (
		nquad      = 8
		seed       = 7
		budgetFull = 600
		budgetPre  = 200
		hold       = 30.0
	)
	cfg := func(cells []Cell, ck *Checkpointer, ts TimeSource) Config {
		return Config{
			Cells: cells, Time: ts, Clock: clock.NewManual(time.Unix(0, 0)),
			Checkpointer: ck, CheckpointEvery: 10 * time.Millisecond,
			Pace: time.Millisecond, Seed: seed, CallHold: hold, Audit: true,
		}
	}

	// Control: never crashes, sees the whole workload.
	control := meshCells(nquad)
	ctrlRep := New(cfg(control, nil, NewStepSource(0, 1))).Serve(budgetFull, nil)
	if ctrlRep.ExitCode != ExitClean {
		t.Fatalf("control exit = %d (err %q)", ctrlRep.ExitCode, ctrlRep.Err)
	}
	if ctrlRep.Blocked != 0 {
		// The comparison below assumes both runs admit everything (the
		// mesh is far under capacity); a blocked call would let the
		// connection tables diverge silently.
		t.Fatalf("control blocked %d calls; the load assumption broke", ctrlRep.Blocked)
	}

	// Crashed run: serve the first budgetPre events with checkpointing,
	// then abandon the server and its engines where they stand.
	dir := t.TempDir()
	ckA, err := NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	cellsA := meshCells(nquad)
	repA := New(cfg(cellsA, ckA, NewStepSource(0, 1))).Serve(budgetPre, nil)
	if repA.ExitCode != ExitClean || repA.Checkpoints == 0 {
		t.Fatalf("pre-crash run: %+v", repA)
	}

	// Restart: fresh engines, restore from disk, verify the restore.
	cellsB := meshCells(nquad)
	ckB, err := NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	srvB := New(cfg(cellsB, ckB, nil))
	info, err := srvB.Restore() // Audit on: history fixed point must hold
	if err != nil {
		t.Fatal(err)
	}
	if !info.Found || info.Source != "current" || info.Seq != repA.Seq {
		t.Fatalf("restore info = %+v (pre-crash seq %d)", info, repA.Seq)
	}
	for i := range cellsB {
		if got, want := cellsB[i].Engine.HistoryLastEvent(), cellsA[i].Engine.HistoryLastEvent(); got != want {
			t.Fatalf("cell %d restored last event %v, want %v", i, got, want)
		}
	}

	// Resume: the clock continues at the restore point, the workload
	// RNG replays from the seed. After the full budget the NQuad=8
	// caches hold only replay-era samples, which match the control's
	// newest samples value-for-value.
	srvB.SetTime(NewStepSource(info.SimNow, 1))
	repB := srvB.Serve(budgetFull, nil)
	if repB.ExitCode != ExitClean {
		t.Fatalf("restored run exit = %d (err %q)", repB.ExitCode, repB.Err)
	}
	if repB.Blocked != 0 {
		t.Fatalf("restored run blocked %d calls; the load assumption broke", repB.Blocked)
	}
	if repB.Seq <= repA.Seq {
		t.Fatalf("restored run's checkpoints (seq %d) did not continue the sequence (%d)", repB.Seq, repA.Seq)
	}

	// B_r reconvergence, cell by cell.
	for i := range control {
		want := control[i].Engine.ComputeTargetReservation(ctrlRep.FinalSimNow, control[i].Peers)
		got := cellsB[i].Engine.ComputeTargetReservation(repB.FinalSimNow, cellsB[i].Peers)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("cell %d: restored B_r = %v, control = %v", i, got, want)
		}
	}
	// A live admission must decide identically on both meshes.
	for i := range control {
		dc := control[i].Engine.AdmitNew(ctrlRep.FinalSimNow+1, 4, control[i].Peers)
		db := cellsB[i].Engine.AdmitNew(repB.FinalSimNow+1, 4, cellsB[i].Peers)
		if dc.Admitted != db.Admitted || dc.Degraded != db.Degraded {
			t.Fatalf("cell %d: probe decision diverged: control %+v, restored %+v", i, dc, db)
		}
	}
}

// TestServeRestoreFromPrevExitsDegraded: a corrupt current checkpoint
// falls back to the rotated previous one, and the run's exit code
// reports the degradation.
func TestServeRestoreFromPrevExitsDegraded(t *testing.T) {
	defer testleak.Check(t)()
	dir := t.TempDir()
	ckA, err := NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{
		Cells: meshCells(32), Time: NewStepSource(0, 1),
		Clock: clock.NewManual(time.Unix(0, 0)), Checkpointer: ckA,
		CheckpointEvery: 5 * time.Millisecond, Pace: time.Millisecond, Seed: 3,
	})
	if rep := a.Serve(100, nil); rep.Checkpoints < 2 {
		t.Fatalf("setup wrote %d checkpoints, need ≥ 2 for a .prev", rep.Checkpoints)
	}
	corruptFile(t, ckA.CurrentPath())

	ckB, err := NewCheckpointer(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{
		Cells: meshCells(32), Time: nil,
		Clock: clock.NewManual(time.Unix(0, 0)), Checkpointer: ckB, Audit: true,
	})
	info, err := b.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "prev" {
		t.Fatalf("source = %q, want prev", info.Source)
	}
	b.SetTime(NewStepSource(info.SimNow, 1))
	rep := b.Serve(50, nil)
	if rep.ExitCode != ExitDegraded {
		t.Fatalf("exit = %d, want degraded after a prev-file restore", rep.ExitCode)
	}
	if rep.RestoredFrom != "prev" || rep.RestoredSeq != info.Seq {
		t.Fatalf("report restore fields: %+v", rep)
	}
}
