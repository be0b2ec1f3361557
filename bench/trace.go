package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cellqos/internal/clock"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// Tracing is done entirely from the benchmark's side: wrappers around
// the interfaces each layer already accepts (AdmissionPolicy, Peers,
// mobility.Model, traffic.Schedule, service.TimeSource) record one span
// per call. Spans stay in memory and are written out after the run.

// spanID identifies a span: buffer index in the high half, 1-based
// position in the low half. Zero means "no span".
type spanID int64

func mkSpanID(buf, idx int) spanID { return spanID(int64(buf)<<32 | int64(idx+1)) }

// spanKind names what a span covers.
type spanKind uint8

const (
	spanSetup spanKind = iota
	spanRun
	spanSlice
	spanEvent
	spanDecision
	spanDecideNew
	spanDecideHandOff
	spanPeersOutgoing
	spanPeersSnapshot
	spanPeersRecompute
	spanPeersMaxSojourn
	spanNewPath
)

var spanNames = [...]string{
	spanSetup:           "setup",
	spanRun:             "run",
	spanSlice:           "cellnet.slice",
	spanEvent:           "service.event",
	spanDecision:        "decision",
	spanDecideNew:       "core.decide_new",
	spanDecideHandOff:   "core.decide_handoff",
	spanPeersOutgoing:   "peers.outgoing_reservation",
	spanPeersSnapshot:   "peers.snapshot",
	spanPeersRecompute:  "peers.recompute_reservation",
	spanPeersMaxSojourn: "peers.max_sojourn",
	spanNewPath:         "mobility.new_path",
}

func (k spanKind) peers() bool { return k >= spanPeersOutgoing && k <= spanPeersMaxSojourn }

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Op is the request the span belongs to (slice index on
// the simulations, event index on serve-mesh, decision index on
// signal-mesh).
type span struct {
	kind       spanKind
	start, end int64
	parent     spanID
	op         int64
}

// tracer owns the span buffers of one traced round.
type tracer struct {
	wall  clock.Wall
	epoch time.Time

	mu   sync.Mutex
	bufs []*spanBuf

	// parent and op are the span and request under which wrapper spans
	// are filed. The driving goroutine sets them between calls into the
	// program; wrappers running on kernel shards only read them.
	parent spanID
	op     int64
	// decide is the open decide_new span, so Peers spans nest under it.
	// It is kept only when nest is set: the single-caller workloads
	// (serve-mesh, signal-mesh) have a Peers wrapper and run every
	// wrapper on the caller; on the simulations shards would race on it.
	nest   bool
	decide spanID

	clockNs int64 // cost of one clock read, calibrated at start
}

func newTracer() *tracer {
	w := clock.Wall{}
	t := &tracer{wall: w, epoch: w.Now()}
	// Two back-to-back clock reads differ by one read's cost; the median
	// over many pairs is what every timed interval carries on top of the
	// call it brackets.
	const pairs = 1001
	deltas := make([]float64, pairs)
	for i := range deltas {
		a := t.now()
		deltas[i] = float64(t.now() - a)
	}
	t.clockNs = int64(median(deltas))
	return t
}

// busy is a timed interval less the clock's own cost, for the busy-time
// sums (spans keep the raw readings).
func (t *tracer) busy(start, end int64) int64 {
	if d := end - start - t.clockNs; d > 0 {
		return d
	}
	return 0
}

func (t *tracer) now() int64 { return int64(t.wall.Since(t.epoch)) }

// newBuf registers a buffer. One goroutine at a time appends to a
// buffer: wrappers that kernel shards call concurrently own one buffer
// per cell, and a cell belongs to one shard.
func (t *tracer) newBuf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{idx: len(t.bufs)}
	t.bufs = append(t.bufs, b)
	return b
}

type spanBuf struct {
	idx   int
	spans []span
}

func (b *spanBuf) add(s span) spanID {
	b.spans = append(b.spans, s)
	return mkSpanID(b.idx, len(b.spans)-1)
}

// begin files an open span so children can name it as parent; end
// closes it.
func (b *spanBuf) begin(kind spanKind, start int64, parent spanID, op int64) spanID {
	return b.add(span{kind: kind, start: start, parent: parent, op: op})
}

func (b *spanBuf) end(id spanID, end int64) { b.spans[int(id&0xffffffff)-1].end = end }

// close sets both ends of a span that was filed before its clock started.
func (b *spanBuf) close(id spanID, start, end int64) {
	s := &b.spans[int(id&0xffffffff)-1]
	s.start, s.end = start, end
}

// all returns every recorded span with its ID, ordered by start time.
func (t *tracer) all() []idSpan {
	var out []idSpan
	for _, b := range t.bufs {
		for i, s := range b.spans {
			out = append(out, idSpan{id: mkSpanID(b.idx, i), span: s})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

type idSpan struct {
	id spanID
	span
}

// traceFileSpans caps the spans written to a trace file; the aggregates
// in the result are computed from all of them.
const traceFileSpans = 50000

type traceFile struct {
	Workload     string          `json:"workload"`
	Seed         uint64          `json:"seed"`
	Machine      machine         `json:"machine"`
	SpansTotal   int             `json:"spans_total"`
	SpansWritten int             `json:"spans_written"`
	Spans        []traceFileSpan `json:"spans"`
}

type traceFileSpan struct {
	ID      spanID `json:"id"`
	Parent  spanID `json:"parent"`
	Name    string `json:"name"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace stores the first traceFileSpans of all (ordered by start
// time) and every ancestor they name, so that parents always resolve
// inside the file.
func writeTrace(path string, all []idSpan, workload string, seed uint64) error {
	keep := all
	if len(keep) > traceFileSpans {
		keep = append([]idSpan(nil), all[:traceFileSpans]...)
		byID := make(map[spanID]idSpan, len(all))
		for _, s := range all {
			byID[s.id] = s
		}
		kept := make(map[spanID]bool, len(keep))
		for _, s := range keep {
			kept[s.id] = true
		}
		for i := 0; i < len(keep); i++ { // keep grows while ancestors are added
			if p := keep[i].parent; p != 0 && !kept[p] {
				kept[p] = true
				keep = append(keep, byID[p])
			}
		}
	}
	tf := traceFile{Workload: workload, Seed: seed, Machine: thisMachine(), SpansTotal: len(all), SpansWritten: len(keep)}
	for _, s := range keep {
		tf.Spans = append(tf.Spans, traceFileSpan{ID: s.id, Parent: s.parent, Name: spanNames[s.kind], Op: s.op, StartNs: s.start, EndNs: s.end})
	}
	data, err := json.Marshal(&tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkNesting verifies that every parent resolves and that each child
// lies inside its parent's interval.
func checkNesting(spans []idSpan) error {
	byID := make(map[spanID]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s.span
	}
	for _, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.id, spanNames[s.kind])
		}
		if s.parent == 0 {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names unknown parent %d", s.id, spanNames[s.kind], s.parent)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) [%d,%d] is not inside its parent %s [%d,%d]",
				s.id, spanNames[s.kind], s.start, s.end, spanNames[p.kind], p.start, p.end)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// AdmissionPolicy wrapper

// policyStats is what one per-cell policy wrapper saw.
type policyStats struct {
	newCalls, handOffCalls   uint64
	newTimed, handOffTimed   uint64
	newBusyNs, handOffBusyNs int64 // over the timed calls only
	voice                    uint64
}

func (s *policyStats) add(o *policyStats) {
	s.newCalls += o.newCalls
	s.handOffCalls += o.handOffCalls
	s.newTimed += o.newTimed
	s.handOffTimed += o.handOffTimed
	s.newBusyNs += o.newBusyNs
	s.handOffBusyNs += o.handOffBusyNs
	s.voice += o.voice
}

// busy scales the timed calls' total up to all calls.
func busySeconds(busyNs int64, timed, calls uint64) float64 {
	if timed == 0 {
		return 0
	}
	return float64(busyNs) / 1e9 * float64(calls) / float64(timed)
}

// tracedPolicy forwards to the real policy, counting every call and
// timing one in stride (two clock reads are a fifth of a 0.5 µs event
// on ring-static, so that workload samples; the others time every
// call). It is a CellStater, so each engine gets its own instance and
// counters: shards never share one.
type tracedPolicy struct {
	inner  core.AdmissionPolicy
	tr     *tracer
	stride uint64
	buf    *spanBuf
	policyStats
}

// tracedFixedPolicy adds the optional interfaces of the fixed-reserve
// schemes (static), which the engine discovers by type assertion.
type tracedFixedPolicy struct {
	*tracedPolicy
	fixed core.FixedReservationPolicy
	valid core.PolicyValidator
}

// statser is how the harness finds the per-cell instances again after
// the run (through Engine.Policy).
type statser interface{ stats() *policyStats }

// tracePolicy wraps inner. Only the optional interfaces the benchmark's
// workloads meet are forwarded; a policy with any other is refused, so
// that a later workload cannot silently measure a different scheme.
func tracePolicy(inner core.AdmissionPolicy, tr *tracer, stride uint64) core.AdmissionPolicy {
	switch inner.(type) {
	case core.CellStater, core.HandOffObserver, core.OutgoingModel:
		panic(fmt.Sprintf("bench: policy %s has an optional interface the trace wrapper does not forward", inner.Name()))
	}
	base := &tracedPolicy{inner: inner, tr: tr, stride: stride}
	fixed, isFixed := inner.(core.FixedReservationPolicy)
	valid, isValid := inner.(core.PolicyValidator)
	if isFixed != isValid {
		panic(fmt.Sprintf("bench: policy %s implements only one of FixedReservationPolicy and PolicyValidator", inner.Name()))
	}
	if isFixed {
		return &tracedFixedPolicy{tracedPolicy: base, fixed: fixed, valid: valid}
	}
	return base
}

func (p *tracedPolicy) Name() string              { return p.inner.Name() }
func (p *tracedPolicy) Traits() core.PolicyTraits { return p.inner.Traits() }
func (p *tracedPolicy) stats() *policyStats       { return &p.policyStats }

// CloneCellState implements core.CellStater: a fresh wrapper with its
// own counters and span buffer around the same (stateless) inner policy.
func (p *tracedPolicy) CloneCellState() core.AdmissionPolicy {
	return &tracedPolicy{inner: p.inner, tr: p.tr, stride: p.stride, buf: p.tr.newBuf()}
}

// CloneCellState keeps the optional interfaces on the per-cell instance.
func (p *tracedFixedPolicy) CloneCellState() core.AdmissionPolicy {
	return &tracedFixedPolicy{
		tracedPolicy: p.tracedPolicy.CloneCellState().(*tracedPolicy),
		fixed:        p.fixed,
		valid:        p.valid,
	}
}

func (p *tracedFixedPolicy) FixedReservation(cfg core.Config) float64 {
	return p.fixed.FixedReservation(cfg)
}

func (p *tracedFixedPolicy) ValidateConfig(cfg core.Config) error { return p.valid.ValidateConfig(cfg) }

func (p *tracedPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	p.newCalls++
	if ctx.Bandwidth == traffic.Voice.Bandwidth {
		p.voice++
	}
	if p.newCalls%p.stride != 0 {
		return p.inner.DecideNew(ctx)
	}
	// The span is filed before the clock starts so that Peers spans can
	// name it as parent and the bookkeeping stays outside the interval.
	id := p.buf.begin(spanDecideNew, 0, p.tr.parent, p.tr.op)
	if p.tr.nest {
		p.tr.decide = id
	}
	start := p.tr.now()
	d := p.inner.DecideNew(ctx)
	end := p.tr.now()
	if p.tr.nest {
		p.tr.decide = 0
	}
	p.buf.close(id, start, end)
	p.newTimed++
	p.newBusyNs += p.tr.busy(start, end)
	return d
}

func (p *tracedPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	p.handOffCalls++
	if p.handOffCalls%p.stride != 0 {
		return p.inner.DecideHandOff(ctx)
	}
	start := p.tr.now()
	d := p.inner.DecideHandOff(ctx)
	end := p.tr.now()
	p.buf.add(span{kind: spanDecideHandOff, start: start, end: end, parent: p.tr.parent, op: p.tr.op})
	p.handOffTimed++
	p.handOffBusyNs += p.tr.busy(start, end)
	return d
}

// collectPolicyStats sums the per-cell wrappers of the given engines.
func collectPolicyStats(engines []*core.Engine) policyStats {
	var sum policyStats
	for _, e := range engines {
		if s, ok := e.Policy().(statser); ok {
			sum.add(s.stats())
		}
	}
	return sum
}

// ---------------------------------------------------------------------
// Peers wrapper (serve-mesh, signal-mesh: one caller, so one buffer)

type tracedPeers struct {
	inner  core.Peers
	tr     *tracer
	buf    *spanBuf
	calls  *uint64 // shared by every cell's wrapper of one round
	busyNs *int64
}

func (p *tracedPeers) note(kind spanKind, start int64) {
	end := p.tr.now()
	parent := p.tr.decide
	if parent == 0 {
		parent = p.tr.parent
	}
	p.buf.add(span{kind: kind, start: start, end: end, parent: parent, op: p.tr.op})
	*p.calls++
	*p.busyNs += end - start
}

func (p *tracedPeers) OutgoingReservation(li topology.LocalIndex, now, test float64) (float64, bool) {
	start := p.tr.now()
	v, ok := p.inner.OutgoingReservation(li, now, test)
	p.note(spanPeersOutgoing, start)
	return v, ok
}

func (p *tracedPeers) Snapshot(li topology.LocalIndex) (int, int, float64, bool) {
	start := p.tr.now()
	used, capacity, br, ok := p.inner.Snapshot(li)
	p.note(spanPeersSnapshot, start)
	return used, capacity, br, ok
}

func (p *tracedPeers) RecomputeReservation(li topology.LocalIndex, now float64) (int, int, float64, bool) {
	start := p.tr.now()
	used, capacity, br, ok := p.inner.RecomputeReservation(li, now)
	p.note(spanPeersRecompute, start)
	return used, capacity, br, ok
}

func (p *tracedPeers) MaxSojourn(li topology.LocalIndex, now float64) (float64, bool) {
	start := p.tr.now()
	v, ok := p.inner.MaxSojourn(li, now)
	p.note(spanPeersMaxSojourn, start)
	return v, ok
}

// ---------------------------------------------------------------------
// mobility.Model wrapper

// tracedMobility counts and times path minting per start cell: cellnet
// calls the model from whichever shard owns the cell, and a cell has
// one owner, so per-cell slots need no synchronisation.
type tracedMobility struct {
	inner  mobility.SpeedAware
	tr     *tracer
	stride uint64
	cells  []mobilityCell
}

type mobilityCell struct {
	buf          *spanBuf
	calls, timed uint64
	busyNs       int64
}

func traceMobility(inner mobility.Model, tr *tracer, stride uint64, cells int) *tracedMobility {
	sa, ok := inner.(mobility.SpeedAware)
	if !ok {
		panic("bench: mobility model is not SpeedAware")
	}
	m := &tracedMobility{inner: sa, tr: tr, stride: stride, cells: make([]mobilityCell, cells)}
	for i := range m.cells {
		m.cells[i].buf = tr.newBuf()
	}
	return m
}

func (m *tracedMobility) NewPath(rng *rand.Rand, start topology.CellID) mobility.Path {
	c := &m.cells[start]
	c.calls++
	if c.calls%m.stride != 0 {
		return m.inner.NewPath(rng, start)
	}
	t0 := m.tr.now()
	p := m.inner.NewPath(rng, start)
	c.note(m.tr, t0)
	return p
}

func (m *tracedMobility) NewPathWithSpeed(rng *rand.Rand, start topology.CellID, sr mobility.SpeedRange) mobility.Path {
	c := &m.cells[start]
	c.calls++
	if c.calls%m.stride != 0 {
		return m.inner.NewPathWithSpeed(rng, start, sr)
	}
	t0 := m.tr.now()
	p := m.inner.NewPathWithSpeed(rng, start, sr)
	c.note(m.tr, t0)
	return p
}

func (c *mobilityCell) note(tr *tracer, t0 int64) {
	t1 := tr.now()
	c.buf.add(span{kind: spanNewPath, start: t0, end: t1, parent: tr.parent, op: tr.op})
	c.timed++
	c.busyNs += tr.busy(t0, t1)
}

func (m *tracedMobility) totals() (calls, timed uint64, busyNs int64) {
	for i := range m.cells {
		calls += m.cells[i].calls
		timed += m.cells[i].timed
		busyNs += m.cells[i].busyNs
	}
	return calls, timed, busyNs
}

// ---------------------------------------------------------------------
// traffic.Schedule wrapper

// countedSchedule counts arrival-rate lookups (one per arrival drawn).
// The calls themselves return a constant, so timing them would measure
// the clock; the counter is atomic because shards share the schedule.
type countedSchedule struct {
	inner traffic.Schedule
	rates atomic.Uint64
}

func (s *countedSchedule) Rate(t float64) float64 {
	s.rates.Add(1)
	return s.inner.Rate(t)
}
func (s *countedSchedule) Speed(t float64) (float64, float64)   { return s.inner.Speed(t) }
func (s *countedSchedule) NextChange(t float64) (float64, bool) { return s.inner.NextChange(t) }
