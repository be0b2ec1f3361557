package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/topology"
)

// serve-mesh is the `bsnet -serve` shape: a service.Server over ten
// in-process base stations on a ring, one closed-loop caller (the
// server's own loop), flat out. Every fourth event is a new-call
// admission, the rest are hand-off departures, so three estimator
// writes land between every two admissions.
const (
	serveCells        = 10
	serveStep         = 0.1     // simulated seconds per event
	serveNewCallEvery = 4       // service.Config default, stated because latencies are split by it
	serveWarmEvents   = 100_000 // untimed warm-up serve that writes the checkpoint rounds restart from
	serveEvents       = 160_000 // events per timed round
	serveSmokeWarm    = 8_000
	serveSmokeEvents  = 24_000
	serveOccupancyGap = 1024 // events between occupancy samples
)

func serveMesh() *workload {
	s := &serveState{}
	return &workload{
		name:    "serve-mesh",
		why:     "the service.Server decision path, closed loop: the same core/predict layer as ring-ac3 used the other way round (three estimator writes per admission), plus checkpointing and restart",
		prepare: s.prepare,
		setup:   s.setup,
	}
}

// serveState carries the warm checkpoint from prepare to the rounds:
// the state directory holds it when a round starts, and close puts it
// back after the round's own checkpoints have replaced it.
type serveState struct {
	dir        string
	current    string // path of the state directory's current checkpoint
	checkpoint []byte
	seq        uint64
}

func serveCellsFor(pol core.AdmissionPolicy) []service.Cell {
	return service.NewMeshCells(topology.Ring(serveCells), func(id topology.CellID, degree int) *core.Engine {
		return core.NewEngine(core.Config{
			Capacity: 100, Degree: degree, Admission: pol,
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: 100},
			Lock:       &sync.Mutex{},
		})
	})
}

// prepare serves the warm-up from a cold start and keeps the checkpoint
// its shutdown writes. It is input generation, not set-up: every round
// restarts from this file.
func (s *serveState) prepare(e *env) error {
	events := uint64(serveWarmEvents)
	if e.smoke {
		events = serveSmokeWarm
	}
	s.dir = filepath.Join(e.tmp, "state")
	ck, err := service.NewCheckpointer(s.dir)
	if err != nil {
		return err
	}
	srv := service.New(service.Config{
		Cells:        serveCellsFor(core.MustPolicy("AC3")),
		Checkpointer: ck,
		Seed:         e.seed,
		NewCallEvery: serveNewCallEvery,
		Audit:        true,
	})
	srv.SetTime(service.NewStepSource(0, serveStep))
	rep := srv.Serve(events, nil)
	if rep.ExitCode != service.ExitClean {
		return fmt.Errorf("warm-up serve exited %d: %s", rep.ExitCode, rep.Err)
	}
	s.current, s.seq = ck.CurrentPath(), rep.Seq
	s.checkpoint, err = os.ReadFile(s.current)
	return err
}

// stampSource is the load generator's TimeSource: the server asks it
// for the time once per event, so consecutive stamps bracket one event.
// It is on in untraced runs too, identically on every commit.
type stampSource struct {
	inner  *service.StepSource
	epoch  time.Time
	stamps []int64 // host ns since epoch at each SimNow call
	cells  []service.Cell
	occSum float64 // Σ over samples of the cells' mean used bandwidth
	occN   int

	tr    *tracer
	evBuf int // index of the span buffer holding one span per event
}

func (s *stampSource) SimNow() float64 {
	i := len(s.stamps)
	s.stamps = append(s.stamps, int64(wall.Since(s.epoch)))
	if i%serveOccupancyGap == 0 {
		used := 0
		for _, c := range s.cells {
			used += c.Engine.UsedBandwidth()
		}
		s.occSum += float64(used) / float64(len(s.cells))
		s.occN++
	}
	if s.tr != nil {
		// Event i's span is filed after the run from the stamps; its ID
		// is known now, so wrapper spans can already name it as parent.
		s.tr.parent, s.tr.op = mkSpanID(s.evBuf, i), int64(i)
	}
	return s.inner.SimNow()
}

type serveInstance struct {
	state  *serveState
	srv    *service.Server
	cells  []service.Cell
	time   *stampSource
	events uint64
	rep    *service.Report
	tr     *tracer
	evBuf  *spanBuf
	pcalls uint64
	pbusy  int64
}

func (s *serveState) setup(e *env, tr *tracer) (instance, error) {
	in := &serveInstance{state: s, events: serveEvents, tr: tr}
	if e.smoke {
		in.events = serveSmokeEvents
	}

	// Restart to first decision: New → Restore → SetTime.
	ck, err := service.NewCheckpointer(s.dir)
	if err != nil {
		return nil, err
	}
	pol := core.MustPolicy("AC3")
	if tr != nil {
		tr.nest = true
		pol = tracePolicy(pol, tr, 1)
	}
	in.cells = serveCellsFor(pol)
	if tr != nil {
		in.evBuf = tr.newBuf()
		pbuf := tr.newBuf()
		for i := range in.cells {
			in.cells[i].Peers = &tracedPeers{inner: in.cells[i].Peers, tr: tr, buf: pbuf, calls: &in.pcalls, busyNs: &in.pbusy}
		}
	}
	// One checkpoint per 20,000 events, with no real sleeping: the manual
	// clock advances 1 ms per paced event and the cadence is 20 s.
	in.srv = service.New(service.Config{
		Cells:           in.cells,
		Clock:           clock.NewManual(time.Unix(0, 0)),
		Checkpointer:    ck,
		CheckpointEvery: 20 * time.Second,
		Pace:            time.Millisecond,
		Seed:            e.seed,
		NewCallEvery:    serveNewCallEvery,
		CallHold:        200,
		Audit:           true,
	})
	info, err := in.srv.Restore()
	if err != nil {
		return nil, err
	}
	if !info.Found || info.Source != "current" || info.Seq != s.seq {
		return nil, fmt.Errorf("restore did not find the warm checkpoint (found=%v source=%q seq=%d, want seq %d)",
			info.Found, info.Source, info.Seq, s.seq)
	}
	in.time = &stampSource{
		inner:  service.NewStepSource(info.SimNow, serveStep),
		epoch:  wall.Now(),
		stamps: make([]int64, 0, in.events+1),
		cells:  in.cells,
		tr:     tr,
	}
	if tr != nil {
		in.time.evBuf = in.evBuf.idx
	}
	in.srv.SetTime(in.time)
	return in, nil
}

func (in *serveInstance) run() { in.rep = in.srv.Serve(in.events, nil) }

// close puts the warm checkpoint back for the next round. A failure
// shows there: Restore then finds a checkpoint with another sequence.
func (in *serveInstance) close() {
	_ = os.Remove(in.state.current + ".prev")
	_ = os.WriteFile(in.state.current, in.state.checkpoint, 0o644)
}

func (in *serveInstance) finish(wallS float64) round {
	rep := in.rep
	r := round{layer: map[string]float64{}}
	r.ops = rep.Offered
	r.attempted = rep.Offered
	r.failed = rep.Shed + rep.Degraded

	if rep.ExitCode != service.ExitClean {
		r.failf("serve exited %d: %s", rep.ExitCode, rep.Err)
	}
	if rep.Offered != rep.Admitted+rep.Blocked+rep.Shed {
		r.failf("offered %d != admitted %d + blocked %d + shed %d", rep.Offered, rep.Admitted, rep.Blocked, rep.Shed)
	}
	if !rep.DrainOK || !rep.FinalFlushOK {
		r.failf("shutdown: drained=%v final-flush=%v", rep.DrainOK, rep.FinalFlushOK)
	}
	engines := make([]*core.Engine, len(in.cells))
	for i, c := range in.cells {
		engines[i] = c.Engine
	}
	if err := auditEngines(engines, rep.FinalSimNow); err != nil {
		r.failf("%v", err)
	}
	st := in.time.stamps
	if uint64(len(st)) != in.events+1 {
		r.failf("%d time stamps for %d events", len(st), in.events)
		return r
	}

	// Event i ran between stamp i and stamp i+1; decisions are the
	// events with i % NewCallEvery == 0.
	var handOff []float64
	for i := 0; i+1 < len(st); i++ {
		us := float64(st[i+1]-st[i]) / 1e3
		if i%serveNewCallEvery == 0 {
			r.lat = append(r.lat, us)
		} else {
			handOff = append(handOff, us)
		}
	}

	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d\n", rep.Events, rep.Offered, rep.Admitted, rep.Blocked, rep.Shed,
		rep.HandOffs, rep.Completions, rep.BrCalcs, rep.Degraded, rep.Checkpoints)
	for _, e := range engines {
		fmt.Fprintf(h, "%d ", e.UsedBandwidth())
	}
	r.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])

	blocked := ratio(float64(rep.Blocked), float64(rep.Offered))
	occupancy := in.time.occSum / float64(in.time.occN)
	r.calib = append(r.calib, fmt.Sprintf("%d decisions + %d departures, blocked share %.4f, mean occupancy %.1f BU per cell, %d checkpoints, digest %s",
		rep.Offered, rep.HandOffs, blocked, occupancy, rep.Checkpoints, r.digest))
	// The workload is meant to admit most calls into well-filled cells;
	// a generator change that empties or saturates them is a different
	// workload.
	if blocked > 0.2 || occupancy < 20 {
		r.failf("calibration: blocked share %.4f, mean occupancy %.1f BU", blocked, occupancy)
	}
	if in.tr == nil {
		return r
	}

	for i := 0; i+1 < len(st); i++ {
		in.evBuf.add(span{kind: spanEvent, start: st[i] + in.epochOffset(), end: st[i+1] + in.epochOffset(), op: int64(i)})
	}
	var decisionNs int64
	for i := 0; i+1 < len(st); i += serveNewCallEvery {
		decisionNs += st[i+1] - st[i]
	}
	policyMetrics(policyStats{}, collectPolicyStats(engines), wallS, r.layer)
	engineCounters(engines, rep.FinalSimNow, r.layer)
	sort.Float64s(handOff)
	r.layer["service.handoff_event_us_p50"] = percentile(handOff, 50)
	r.layer["service.handoff_event_us_p99"] = percentile(handOff, 99)
	r.layer["service.peers_share"] = ratio(float64(in.pbusy), float64(decisionNs))
	r.layer["service.checkpoints"] = float64(rep.Checkpoints)
	return r
}

// epochOffset converts a stamp (ns since the time source's epoch) to
// the tracer's time base.
func (in *serveInstance) epochOffset() int64 { return int64(in.time.epoch.Sub(in.tr.epoch)) }
