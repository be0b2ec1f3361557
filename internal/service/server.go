package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"cellqos/internal/audit"
	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// Exit codes for the service lifecycle. They are distinct so
// supervisors can tell a clean drain from a shutdown that shed load or
// leaned on degraded data, and both from a failure.
const (
	// ExitClean: drained in time, final checkpoint flushed, no
	// degradation observed.
	ExitClean = 0
	// ExitFailed: the shutdown contract was broken — drain timed out,
	// the final checkpoint could not be written, or an audit invariant
	// tripped.
	ExitFailed = 1
	// ExitDegraded: shut down correctly, but the run shed new calls,
	// made degraded admission decisions, or restored from the rotated
	// (previous) checkpoint.
	ExitDegraded = 3
)

// TimeSource supplies simulation timestamps for engine-visible events.
// clock.Bridge implements it for production (wall-derived, monotone);
// StepSource implements it for deterministic drives.
type TimeSource interface {
	SimNow() float64
}

var _ TimeSource = (*clock.Bridge)(nil)

// StepSource is a deterministic TimeSource: the i-th call returns
// start + i·step. Two runs with the same start and step see identical
// timestamps, which is what makes crash-recovery comparisons exact.
// Safe for concurrent use.
type StepSource struct {
	mu   sync.Mutex
	next float64
	step float64
}

// NewStepSource starts at start, advancing by step per call.
func NewStepSource(start, step float64) *StepSource {
	return &StepSource{next: start, step: step}
}

// SimNow implements TimeSource.
func (s *StepSource) SimNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.next
	s.next += s.step
	return t
}

// Cell pairs one engine with its view of the neighbors.
type Cell struct {
	Engine *core.Engine
	Peers  core.Peers
}

// Config parameterizes a Server.
type Config struct {
	// Cells are the base stations this process hosts.
	Cells []Cell
	// Time stamps engine-visible events. Serve requires it; it may be
	// set after Restore, whose SimNow is the natural starting point.
	Time TimeSource
	// Clock paces the loop and the checkpoint cadence (nil = wall).
	Clock clock.Clock
	// Checkpointer persists estimator history (nil = stateless).
	Checkpointer *Checkpointer
	// CheckpointEvery is the wall cadence between periodic checkpoints;
	// ≤ 0 checkpoints only at shutdown.
	CheckpointEvery time.Duration
	// Pace sleeps between events (0 = flat out).
	Pace time.Duration
	// Gate sheds new calls under overload (nil = no shedding).
	Gate *Gate
	// DrainTimeout bounds the shutdown drain (default 5s).
	DrainTimeout time.Duration
	// Workers > 0 dispatches admissions to that many goroutines — the
	// production shape, with genuinely in-flight work to drain. 0 runs
	// admissions inline on the loop, keeping the drive deterministic.
	Workers int
	// Seed drives the workload RNG.
	Seed uint64
	// NewCallEvery makes every k-th event a new-call admission, the
	// rest hand-off departures (default 4).
	NewCallEvery int
	// CallHold is how long an admitted call occupies its cell, in
	// simulation seconds (default 200).
	CallHold float64
	// Audit verifies every cell's ledger (and, after a restore, the
	// history fixed point) with internal/audit; a violation fails the
	// run.
	Audit bool
}

// Report is the drive's final accounting. Offered always equals
// Admitted + Blocked + Shed — the soak harness asserts this exactly,
// so any intake path that forgets to classify its outcome is caught.
type Report struct {
	Events      uint64
	Offered     uint64
	Admitted    uint64
	Blocked     uint64
	Shed        uint64
	HandOffs    uint64
	Completions uint64
	BrCalcs     uint64
	Degraded    uint64 // admission decisions that leaned on fallback data

	Checkpoints  uint64
	Seq          uint64 // last checkpoint sequence written
	RestoredFrom string // "", "current", or "prev"
	RestoredSeq  uint64
	ResumeSimNow float64
	FinalSimNow  float64

	DrainOK      bool
	FinalFlushOK bool
	Err          string // first fatal error, for the JSON report
	ExitCode     int
}

// activeCall is one admitted connection awaiting its completion time.
type activeCall struct {
	id     core.ConnID
	cell   int
	expire float64
}

// Server is the long-running admission service.
type Server struct {
	cfg     Config
	drainer *Drainer
	rng     *rand.Rand
	mix     traffic.Mix

	nextID core.ConnID // loop goroutine only

	// admit serializes admissions per cell (indexed like cfg.Cells): an
	// engine takes one admission at a time, and decide → commit must be
	// one step or two workers could both pass the test on a nearly full
	// cell. Workers therefore parallelize across cells only.
	admit []sync.Mutex

	callsMu sync.Mutex
	calls   []activeCall // expiry-ordered: holds are constant, so FIFO

	events, offered, admitted, blocked, shed atomic.Uint64
	handOffs, completions, brCalcs, degraded atomic.Uint64
	checkpoints, lastSeq                     atomic.Uint64
	restoredFrom                             string
	restoredSeq                              uint64
	resumeSimNow                             float64

	jobs chan func()
	wg   sync.WaitGroup
}

// New builds a Server; it panics on empty Cells (programmer error,
// same convention as core.NewEngine). Config.Time may still be nil
// here — Restore does not need it — but Serve panics without one.
func New(cfg Config) *Server {
	if len(cfg.Cells) == 0 {
		panic("service: no cells to serve")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.NewCallEvery <= 0 {
		cfg.NewCallEvery = 4
	}
	if cfg.CallHold <= 0 {
		cfg.CallHold = 200
	}
	return &Server{
		cfg:     cfg,
		drainer: NewDrainer(),
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x6265)),
		mix:     traffic.Mix{VoiceRatio: 0.8},
		admit:   make([]sync.Mutex, len(cfg.Cells)),
	}
}

// SetTime installs the TimeSource; the usual sequence is New →
// Restore → SetTime (starting from the restored SimNow) → Serve.
func (s *Server) SetTime(ts TimeSource) { s.cfg.Time = ts }

// RestoreInfo describes what Restore found.
type RestoreInfo struct {
	// Found is false on a cold start (no checkpoint on disk).
	Found bool
	// SimNow is the simulation instant to resume from: the snapshot's
	// cut, raised to the restored history's newest event if that is
	// later, so Record's event-order invariant holds.
	SimNow float64
	// Seq is the restored checkpoint's sequence number.
	Seq uint64
	// Source is the file that supplied the snapshot: "current" or
	// "prev" (the fallback — reported as degradation at exit).
	Source string
}

// Restore loads the best available checkpoint into the cells'
// estimators. Call it before Serve, then build the TimeSource from the
// returned SimNow. With Audit set, every restored engine must pass the
// history fixed-point re-derivation (audit.Checker.History).
func (s *Server) Restore() (RestoreInfo, error) {
	if s.cfg.Checkpointer == nil {
		return RestoreInfo{}, nil
	}
	snap, source, err := s.cfg.Checkpointer.Load()
	if err != nil {
		return RestoreInfo{}, err
	}
	if snap == nil {
		return RestoreInfo{}, nil
	}
	if err := s.restorePayload(snap.Payload); err != nil {
		return RestoreInfo{}, err
	}
	resume := snap.SimNow
	for _, c := range s.cfg.Cells {
		if le := c.Engine.HistoryLastEvent(); le > resume {
			resume = le
		}
	}
	if s.cfg.Audit {
		if err := s.auditHistory(resume); err != nil {
			return RestoreInfo{}, err
		}
	}
	s.restoredFrom = source
	s.restoredSeq = snap.Seq
	s.resumeSimNow = resume
	return RestoreInfo{Found: true, SimNow: resume, Seq: snap.Seq, Source: source}, nil
}

// snapshotPayload serializes every cell's history: a cell count
// followed by the cells' self-delimiting WriteHistory streams.
func (s *Server) snapshotPayload() ([]byte, error) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(s.cfg.Cells)))
	buf.Write(hdr[:])
	for i, c := range s.cfg.Cells {
		if _, err := c.Engine.WriteHistory(&buf); err != nil {
			return nil, fmt.Errorf("service: checkpoint cell %d: %w", i, err)
		}
	}
	return buf.Bytes(), nil
}

// restorePayload decodes a snapshotPayload into the cells' engines.
func (s *Server) restorePayload(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("service: checkpoint payload too short (%d bytes)", len(payload))
	}
	if n := binary.BigEndian.Uint32(payload); int(n) != len(s.cfg.Cells) {
		return fmt.Errorf("service: checkpoint holds %d cells, server hosts %d", n, len(s.cfg.Cells))
	}
	r := bytes.NewReader(payload[4:])
	for i, c := range s.cfg.Cells {
		if _, err := c.Engine.RestoreHistory(r); err != nil {
			return fmt.Errorf("service: restore cell %d: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("service: %d trailing bytes after the last cell's history", r.Len())
	}
	return nil
}

// Serve drives the admission loop for budget events (0 = until stop),
// then shuts down gracefully: stop intake, drain in-flight admissions,
// flush the final checkpoint, audit, and report with the exit code.
func (s *Server) Serve(budget uint64, stop <-chan struct{}) *Report {
	if s.cfg.Time == nil {
		panic("service: Config.Time is required to serve")
	}
	w := s.cfg.Clock
	if s.cfg.Workers > 0 {
		s.jobs = make(chan func(), s.cfg.Workers*2)
		for i := 0; i < s.cfg.Workers; i++ {
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				for job := range s.jobs {
					job()
				}
			}()
		}
	}

	var fatal error
	lastCkpt := w.Now()
loop:
	for i := uint64(0); budget == 0 || i < budget; i++ {
		select {
		case <-stop:
			break loop // graceful shutdown below
		default:
		}
		t := s.cfg.Time.SimNow()
		s.expire(t)
		if int(i)%s.cfg.NewCallEvery == 0 {
			s.newCall(t)
		} else {
			s.handOff(t)
		}
		s.events.Add(1)
		if s.cfg.Checkpointer != nil && s.cfg.CheckpointEvery > 0 && w.Since(lastCkpt) >= s.cfg.CheckpointEvery {
			if err := s.checkpoint(t); err != nil {
				fatal = err
				break
			}
			lastCkpt = w.Now()
		}
		if s.cfg.Pace > 0 {
			w.Sleep(s.cfg.Pace)
		}
	}

	// Graceful shutdown: stop intake and wait out the in-flight
	// admissions, then stop the workers.
	drained := s.drainer.Drain(w, s.cfg.DrainTimeout)
	if s.jobs != nil {
		close(s.jobs)
		s.wg.Wait()
	}

	// Final checkpoint: the estimators' latest samples must survive
	// this shutdown even if the periodic cadence never fired.
	finalT := s.cfg.Time.SimNow()
	flushOK := true
	if s.cfg.Checkpointer != nil && fatal == nil {
		if err := s.checkpoint(finalT); err != nil {
			fatal = err
			flushOK = false
		}
	}
	var auditErr error
	if s.cfg.Audit && fatal == nil {
		auditErr = s.auditLedgers(finalT)
	}

	r := &Report{
		Events:       s.events.Load(),
		Offered:      s.offered.Load(),
		Admitted:     s.admitted.Load(),
		Blocked:      s.blocked.Load(),
		Shed:         s.shed.Load(),
		HandOffs:     s.handOffs.Load(),
		Completions:  s.completions.Load(),
		BrCalcs:      s.brCalcs.Load(),
		Degraded:     s.degraded.Load(),
		Checkpoints:  s.checkpoints.Load(),
		Seq:          s.lastSeq.Load(),
		RestoredFrom: s.restoredFrom,
		RestoredSeq:  s.restoredSeq,
		ResumeSimNow: s.resumeSimNow,
		FinalSimNow:  finalT,
		DrainOK:      drained,
		FinalFlushOK: flushOK,
	}
	switch {
	case fatal != nil:
		r.Err = fatal.Error()
		r.ExitCode = ExitFailed
	case auditErr != nil:
		r.Err = auditErr.Error()
		r.ExitCode = ExitFailed
	case !drained:
		r.Err = fmt.Sprintf("drain timed out with %d admissions in flight", s.drainer.Inflight())
		r.ExitCode = ExitFailed
	case r.Shed > 0 || r.Degraded > 0 || r.RestoredFrom == "prev":
		r.ExitCode = ExitDegraded
	default:
		r.ExitCode = ExitClean
	}
	return r
}

// newCall runs one new-call admission at simulation time t: through
// the overload gate, then the drainer, then the engine. Every offered
// call is classified exactly once as admitted, blocked, or shed.
func (s *Server) newCall(t float64) {
	s.offered.Add(1)
	ci := s.rng.IntN(len(s.cfg.Cells))
	bw := s.mix.Sample(s.rng).Bandwidth
	if !s.cfg.Gate.Allow() {
		s.shed.Add(1)
		return
	}
	if !s.drainer.Enter() {
		// Intake raced shutdown: the call is shed, not lost.
		s.shed.Add(1)
		return
	}
	s.nextID++
	id := s.nextID
	cell := s.cfg.Cells[ci]
	job := func() {
		defer s.drainer.Exit()
		s.admit[ci].Lock()
		d := cell.Engine.AdmitNew(t, bw, cell.Peers)
		if d.Admitted {
			cell.Engine.AddConnection(id, core.ConnSpec{Min: bw, Prev: topology.Self}, t)
		}
		s.admit[ci].Unlock()
		s.brCalcs.Add(uint64(d.BrCalcs))
		if d.Degraded {
			s.degraded.Add(1)
		}
		if !d.Admitted {
			s.blocked.Add(1)
			return
		}
		s.admitted.Add(1)
		s.callsMu.Lock()
		s.calls = append(s.calls, activeCall{id: id, cell: ci, expire: t + s.cfg.CallHold})
		s.callsMu.Unlock()
	}
	if s.jobs != nil {
		s.jobs <- job
	} else {
		job()
	}
}

// handOff records one hand-off departure at simulation time t — the
// estimator's food (§3.1). Departures come from the loop goroutine
// only, so event times reach each estimator in monotone order.
func (s *Server) handOff(t float64) {
	ci := s.rng.IntN(len(s.cfg.Cells))
	eng := s.cfg.Cells[ci].Engine
	deg := eng.Config().Degree
	eng.RecordDeparture(predictQuad(t, s.rng, deg))
	s.handOffs.Add(1)
}

// expire completes calls whose hold elapsed. Holds are constant, so
// the list is expiry-ordered and only a prefix ever completes.
func (s *Server) expire(t float64) {
	s.callsMu.Lock()
	defer s.callsMu.Unlock()
	n := 0
	for n < len(s.calls) && s.calls[n].expire <= t {
		c := s.calls[n]
		s.cfg.Cells[c.cell].Engine.RemoveConnection(c.id)
		s.completions.Add(1)
		n++
	}
	if n > 0 {
		s.calls = append(s.calls[:0], s.calls[n:]...)
	}
}

// checkpoint cuts and persists a snapshot at simulation time t.
func (s *Server) checkpoint(t float64) error {
	payload, err := s.snapshotPayload()
	if err != nil {
		return err
	}
	snap := &Snapshot{SimNow: t, Payload: payload}
	if err := s.cfg.Checkpointer.Save(snap); err != nil {
		return err
	}
	s.checkpoints.Add(1)
	s.lastSeq.Store(snap.Seq)
	return nil
}

// auditHistory verifies the post-restore fixed point on every cell.
func (s *Server) auditHistory(now float64) (err error) {
	defer func() { err = asViolation(recover(), err) }()
	var ck audit.Checker
	for i, c := range s.cfg.Cells {
		ck.History(fmt.Sprintf("bs %d", i), now, c.Engine)
	}
	return nil
}

// auditLedgers verifies every cell's bandwidth ledger.
func (s *Server) auditLedgers(now float64) (err error) {
	defer func() { err = asViolation(recover(), err) }()
	var ck audit.Checker
	for i, c := range s.cfg.Cells {
		ck.Engine(fmt.Sprintf("bs %d", i), now, c.Engine.Ledger())
	}
	return nil
}

// asViolation converts a recovered audit.Violation into an error,
// re-panicking on anything else.
func asViolation(r any, prev error) error {
	if r == nil {
		return prev
	}
	if v, ok := r.(*audit.Violation); ok {
		return v
	}
	panic(r)
}

// predictQuad draws one departure quadruplet at time t for a cell of
// the given degree.
func predictQuad(t float64, rng *rand.Rand, deg int) predict.Quadruplet {
	return predict.Quadruplet{
		Event:   t,
		Prev:    topology.LocalIndex(rng.IntN(deg + 1)),
		Next:    topology.LocalIndex(1 + rng.IntN(deg)),
		Sojourn: 20 + rng.Float64()*300,
	}
}
