// Package core implements the paper's predictive, adaptive bandwidth
// reservation and admission control (§4): per-cell target reservation
// bandwidth B_r computed from neighbors' mobility estimates (Eqs. 4–6),
// the adaptive T_est window controller (Fig. 6), and the AC1/AC2/AC3
// admission-control schemes plus the static-reservation and
// no-reservation baselines (§4.3, Table 1).
//
// One Engine manages the QoS state of one cell. Engines reach their
// neighbors only through the Peers interface, so the same logic runs
// whether cells are wired directly in memory (internal/cellnet) or
// communicate across a network (internal/signaling).
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// ConnID identifies a connection within the whole system.
type ConnID uint64

// NoHint marks a connection without path/direction information.
const NoHint topology.LocalIndex = -1

// conn is the engine's per-connection QoS record. Rigid connections
// have min == max == bw; adaptive-QoS connections (§1, refs [6,8]) may
// be downgraded toward min to absorb hand-offs and upgraded back when
// bandwidth frees. The embedded eq5Slot is the connection's state in the
// materialized Eq. 5 view (eq5cache.go); older and younger link the
// table in age order (Engine.youngest).
type conn struct {
	id        ConnID
	bw        int // currently granted bandwidth
	min, max  int
	prev      topology.LocalIndex // where the mobile came from (Self = born here)
	enteredAt float64
	hint      int32 // known next cell (ITS/GPS, §7), or NoHint; see nextCell
	class     int32 // ServiceClass (0 = highest priority)
	// Table slots of the next older and next younger connection by
	// enteredAt, -1 at either end.
	older, younger int32
	eq5Slot
}

// nextCell returns the connection's known next cell, or NoHint.
func (c *conn) nextCell() topology.LocalIndex { return topology.LocalIndex(c.hint) }

// Config parameterizes an Engine.
type Config struct {
	// Capacity is the cell's wireless link capacity C(i) in BUs
	// (paper A6: 100).
	Capacity int
	// Degree is the number of adjacent cells.
	Degree int
	// Admission is the admission-control scheme: a registry policy
	// (MustPolicy, PolicyByName) or a custom AdmissionPolicy. Required.
	Admission AdmissionPolicy
	// StaticReserve is G, the permanent reservation of the Static policy.
	StaticReserve int
	// PHDTarget is P_HD,target (paper: 0.01). Used by adaptive policies.
	PHDTarget float64
	// TStart is the initial T_est in seconds (paper: 1).
	TStart float64
	// Step is the T_est adjustment policy (paper: UnitStep).
	Step StepPolicy
	// Estimation configures the hand-off estimation functions.
	Estimation predict.Config
	// Calendar routes quadruplets to weekday/weekend pattern sets; nil
	// means a single weekday pattern.
	Calendar predict.Calendar
	// HandOffMargin models CDMA soft capacity (§7): hand-offs may intrude
	// up to Capacity+HandOffMargin BUs (spending interference budget),
	// while new connections still respect Capacity − B_r. Zero for the
	// paper's FCA experiments.
	HandOffMargin int
	// ExpDwellMean is the assumed mean cell-dwell time τ in seconds for
	// the ExpDwell baseline.
	ExpDwellMean float64
	// ExpDwellWindow is the ExpDwell baseline's fixed estimation window
	// T in seconds (that scheme has no adaptive T_est).
	ExpDwellWindow float64
	// Fallback is the degradation policy for unreachable neighbors: what
	// an unreachable neighbor contributes to B_r (Eq. 6) instead of
	// silently dropping to zero. The zero value decays the last-known
	// contribution with the default time constant.
	Fallback Fallback
	// Lock, when non-nil, guards the engine's local state for concurrent
	// deployments (internal/signaling): the engine acquires it around
	// every local-state access but never across Peers calls, so a
	// neighbor's query that arrives while this engine waits on a remote
	// fan-out cannot deadlock. Leave nil for single-threaded use
	// (internal/cellnet) — there is then zero locking overhead.
	Lock sync.Locker
}

// Validate checks config invariants.
func (c Config) Validate() error {
	pol := c.Admission
	if pol == nil {
		return fmt.Errorf("core: no admission policy set (registered: %s)",
			strings.Join(PolicyNames(), ", "))
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("core: capacity must be positive, got %d", c.Capacity)
	}
	if c.Degree < 1 {
		return fmt.Errorf("core: degree must be ≥ 1, got %d", c.Degree)
	}
	if v, ok := pol.(PolicyValidator); ok {
		if err := v.ValidateConfig(c); err != nil {
			return err
		}
	}
	if pol.Traits().Adaptive {
		if c.PHDTarget <= 0 || c.PHDTarget > 1 {
			return fmt.Errorf("core: PHD target %v outside (0,1]", c.PHDTarget)
		}
		if c.TStart < 1 {
			return fmt.Errorf("core: TStart %v below 1 s", c.TStart)
		}
		if err := c.Estimation.Validate(); err != nil {
			return err
		}
	}
	if c.HandOffMargin < 0 {
		return fmt.Errorf("core: negative hand-off margin %d", c.HandOffMargin)
	}
	if err := c.Fallback.Validate(); err != nil {
		return err
	}
	return nil
}

// Peers gives an Engine access to its adjacent cells. Local indices are
// in this cell's space (1..Degree). Implementations decide how the
// information travels (function calls, MSC star, BS full mesh) and are
// responsible for counting messages.
//
// Every method reports ok=false when the neighbor's state could not be
// fetched — a dead or partitioned link, a timed-out call, an exhausted
// retry budget. The engine then applies its configured Fallback policy
// instead of treating silence as "contributes nothing" / "infinitely
// healthy", and marks the computation degraded. In-process deployments
// (internal/cellnet without fault injection) always return ok=true.
//
// Degraded-value contract: ok=true additionally promises a finite,
// non-negative value. Implementations need not police that themselves —
// every reader, the engine (Eqs. 5–6, T_soj,max) and the admission
// policies that query neighbors directly (AC2, AC3, any rival that
// copies them) alike, passes each float answer through PeerValue, which
// demotes NaN, ±Inf and negative values (e.g. a corrupt frame decoding
// to a sentinel) to ok=false. Both the in-memory (internal/cellnet) and
// the signaling (internal/signaling) implementations are judged by that
// one helper, so their semantics cannot drift.
//
// An implementation whose queries each cost a round trip may also
// implement Prefetcher; the engine then gathers once per admission test
// instead of asking neighbor by neighbor, query by query.
type Peers interface {
	// OutgoingReservation asks neighbor li to evaluate Eq. 5 toward this
	// cell: the expected bandwidth of its connections that will hand off
	// here within test seconds, at time now.
	OutgoingReservation(li topology.LocalIndex, now, test float64) (res float64, ok bool)
	// Snapshot returns neighbor li's used bandwidth, capacity, and
	// last-computed target reservation B_r^prev without recomputation.
	Snapshot(li topology.LocalIndex) (used, capacity int, lastBr float64, ok bool)
	// RecomputeReservation makes neighbor li recompute its own B_r
	// (updating its B_r^prev) and returns its used bandwidth, capacity
	// and the fresh B_r.
	RecomputeReservation(li topology.LocalIndex, now float64) (used, capacity int, br float64, ok bool)
	// MaxSojourn returns neighbor li's current T_soj,max (the largest
	// sojourn in its hand-off estimation functions).
	MaxSojourn(li topology.LocalIndex, now float64) (tSojMax float64, ok bool)
}

// Prefetcher is an optional capability of a Peers value whose queries
// cost a round trip each (internal/signaling): it can gather what an
// admission test will ask of every neighbor in one exchange per
// neighbor, all of them in flight together. AdmitNewRequest (policies
// with UsesPeers) and ComputeTargetReservation discover it by type
// assertion on their peers argument; the in-process implementations do
// not have it and pay one failed assertion.
//
// Prefetch returns a view valid for one admission test or one Eq. 6
// evaluation on the calling goroutine — never stored on the engine,
// which is re-entered while it waits on neighbors. The view answers
// OutgoingReservation(li, now, test) for exactly the given (now, test)
// and the first Snapshot(li) of each neighbor from what it gathered,
// and passes every other query to the underlying Peers. A neighbor
// that could not be reached answers ok=false to both. The view does
// not itself implement Prefetcher, so handing it on to
// ComputeTargetReservation does not gather again.
type Prefetcher interface {
	Prefetch(now, test float64) Peers
}

// PeerValue validates one Peers float answer against the degraded-value
// contract: the call must have succeeded (ok) and the value must be
// finite and non-negative to be usable. It returns the value and
// whether the caller may rely on it; on false the caller substitutes
// its Fallback policy (or freezes, for window arithmetic) instead of
// letting a corrupt or sentinel value poison Eqs. 5–6. Chain it
// directly around a Peers call:
//
//	if v, ok := PeerValue(peers.OutgoingReservation(li, now, test)); ok { ... }
func PeerValue(v float64, ok bool) (float64, bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return v, true
}

// Decision reports the outcome of an admission test.
type Decision struct {
	// Admitted says whether the new connection may be established.
	Admitted bool
	// BrCalcs is the number of target-reservation-bandwidth calculations
	// the test required across all cells (the paper's N_calc sample).
	BrCalcs int
	// Degraded reports that at least one neighbor's state was
	// unavailable during the test, so the decision rests partly on the
	// Fallback policy rather than fresh Eq. 5/6 information.
	Degraded bool
}

// Engine is the per-cell QoS brain: connection table, hand-off
// estimator, T_est controller, reservation computation, and admission
// tests.
//
// Concurrency contract: one admission per engine at a time. The owning
// BS serializes AdmitNew/AdmitNewRequest/AdmitHandOffRequest, and holds
// that serialization across the AddConnection that commits a positive
// decision, or two admissions could both pass the test on the same free
// bandwidth. Config.Lock guards the engine's state against *other*
// engines' queries (OutgoingReservation, Snapshot-style accessors,
// RecomputeReservation arriving through Peers) and against the owner's
// own RecordDeparture/RemoveConnection; it does not make a second
// concurrent admission safe. Without a Lock the engine is confined to
// one goroutine.
//
// ComputeTargetReservation, by contrast, is re-entered: while the
// owner's admission waits on its neighbors, their RecomputeReservation
// queries run it on this engine from other goroutines. Whatever one
// call gathers from the neighbors (a Prefetcher's view included) lives
// on that call's stack, never on the engine.
type Engine struct {
	cfg    Config
	pol    AdmissionPolicy // resolved (and per-cell instantiated) scheme
	traits PolicyTraits    // pol.Traits(), cached
	// ctx is the reusable decision context: one admission runs at a time
	// (the Engine contract), and reuse keeps the hot path allocation-free
	// despite the interface indirection.
	ctx PolicyContext
	lk  sync.Locker // optional; see Config.Lock
	// Connections live in a slice (stable, deterministic iteration order
	// for the Eq. 5 float sums) with a map index for O(1) lookup;
	// removal swaps with the last element.
	conns []conn
	index map[ConnID]int
	used  int
	// youngest heads the age order threaded through conns (conn.older):
	// the slot with the latest enteredAt, -1 when the table is empty.
	// The Eq. 5 view's sweeps walk it.
	youngest int32

	// pledged is bandwidth promised to specific expected visitors (the
	// MobSpec baseline); it blocks admissions like used bandwidth but
	// converts to used when the pledged mobile arrives.
	pledged int

	patterns *predict.PatternSet
	tc       *TestController
	lastBr   float64 // B_r^prev: target reservation from the latest calculation
	brCalcs  uint64  // lifetime count of Eq. 6 evaluations by this engine

	// eq5 memoizes Eq. 5 state across the back-to-back queries of an
	// admission burst; see eq5cache.go for the exactness rules.
	eq5 eq5Cache

	// Degraded-mode accounting (unreachable neighbors, Fallback policy).
	// lastOut holds each neighbor's most recent successful Eq. 5 answer
	// and lastOutAt when it was observed (NaN = never), feeding the
	// FallbackDecay estimate.
	lastOut            []float64
	lastOutAt          []float64
	lastBrDegraded     bool   // latest B_r computation used ≥1 fallback
	degradedBrCalcs    uint64 // Eq. 6 evaluations that substituted a fallback
	degradedAdmissions uint64 // admission tests run on unknown neighbor state

	downgrades uint64 // adaptive-QoS downgrade events
	upgrades   uint64 // adaptive-QoS upgrade events
}

// NewEngine builds an Engine; it panics on invalid config.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	pol := cfg.Admission
	if cs, ok := pol.(CellStater); ok {
		// Per-cell mutable state: this engine dispatches to its own
		// instance, never the shared registry value.
		pol = cs.CloneCellState()
	}
	e := &Engine{cfg: cfg, pol: pol, traits: pol.Traits(), index: make(map[ConnID]int), youngest: -1}
	e.lk = cfg.Lock
	e.lastOut = make([]float64, cfg.Degree)
	e.lastOutAt = make([]float64, cfg.Degree)
	for i := range e.lastOutAt {
		e.lastOutAt[i] = math.NaN() // never heard from this neighbor
	}
	if e.traits.Adaptive {
		e.patterns = predict.NewPatternSet(cfg.Estimation, cfg.Calendar)
		e.tc = NewTestController(cfg.PHDTarget, cfg.TStart, cfg.Step)
	}
	if f, ok := pol.(FixedReservationPolicy); ok {
		e.lastBr = f.FixedReservation(cfg)
	}
	return e
}

// Policy returns the engine's resolved admission policy (the per-cell
// instance for stateful schemes).
func (e *Engine) Policy() AdmissionPolicy { return e.pol }

// lock/unlock guard local state when a Locker is configured.
func (e *Engine) lock() {
	if e.lk != nil {
		e.lk.Lock()
	}
}

func (e *Engine) unlock() {
	if e.lk != nil {
		e.lk.Unlock()
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// UsedBandwidth returns B_u, the bandwidth of active connections.
func (e *Engine) UsedBandwidth() int {
	e.lock()
	defer e.unlock()
	return e.used
}

// Snapshot returns what Peers.Snapshot reports of this cell — used
// bandwidth, capacity and B_r^prev — read under one acquisition of the
// lock, so a concurrent admission cannot slip between the reads and
// hand the asker a (used, B_r^prev) pair that never existed.
func (e *Engine) Snapshot() (used, capacity int, lastBr float64) {
	e.lock()
	defer e.unlock()
	return e.used, e.cfg.Capacity, e.lastBr
}

// Pledge reserves bw BUs for a specific expected hand-off (the MobSpec
// baseline's per-connection reservation). It fails without side effects
// when the cell cannot honor it.
func (e *Engine) Pledge(bw int) bool {
	if bw <= 0 {
		panic(fmt.Sprintf("core: non-positive pledge %d", bw))
	}
	e.lock()
	defer e.unlock()
	if e.used+e.pledged+bw > e.cfg.Capacity {
		return false
	}
	e.pledged += bw
	return true
}

// Unpledge releases a pledge (the mobile arrived, ended, or left the
// specification).
func (e *Engine) Unpledge(bw int) {
	e.lock()
	defer e.unlock()
	if bw > e.pledged {
		panic(fmt.Sprintf("core: unpledging %d of %d", bw, e.pledged))
	}
	e.pledged -= bw
}

// Capacity returns the cell's link capacity C.
func (e *Engine) Capacity() int { return e.cfg.Capacity }

// Test returns the current estimation window T_est; 0 for non-adaptive
// policies.
func (e *Engine) Test() float64 {
	if e.tc == nil {
		return 0
	}
	e.lock()
	defer e.unlock()
	return e.tc.Test()
}

// Controller exposes the T_est controller for diagnostics (nil for
// non-adaptive policies).
func (e *Engine) Controller() *TestController { return e.tc }

// Estimator exposes the estimator in force at time t (nil for
// non-adaptive policies).
func (e *Engine) Estimator(t float64) *predict.Estimator {
	if e.patterns == nil {
		return nil
	}
	return e.patterns.Estimator(t)
}

// LastTargetReservation returns B_r^prev, the most recently computed
// target reservation bandwidth (G for Static, 0 for None).
func (e *Engine) LastTargetReservation() float64 {
	e.lock()
	defer e.unlock()
	return e.lastBr
}

// PublishReservation records br as the current target reservation
// B_r^prev (visible to AC3 snapshots, RedistributeFree and metrics)
// without counting an Eq. 6 evaluation. Policies that maintain their
// own reservation level (dynamic guard channels) publish it here.
func (e *Engine) PublishReservation(br float64) {
	if math.IsNaN(br) || math.IsInf(br, 0) || br < 0 {
		panic(fmt.Sprintf("core: bad published reservation %v", br))
	}
	e.lock()
	defer e.unlock()
	e.lastBr = br
}

// ConnSpec describes a connection to register. The zero value of each
// optional field means "absent": Max == 0 marks a rigid connection
// (max = min), and Hint == topology.Self — never a valid hand-off
// destination — means the next cell is unknown (NoHint also works).
type ConnSpec struct {
	// Min is the minimum (guaranteed) bandwidth in BUs. Required.
	Min int
	// Max caps an adaptive-QoS connection (§1): the engine grants as
	// much of [Min, Max] as the link allows. Zero means rigid.
	Max int
	// Prev is where the mobile came from: topology.Self for a freshly
	// admitted connection born here, or the origin cell's local index
	// for a hand-off arrival.
	Prev topology.LocalIndex
	// Hint is the known next cell from route guidance (the paper's §7
	// ITS/GPS extension): Eq. 5 then only estimates the hand-off *time*,
	// concentrating the reserved bandwidth on the known destination.
	Hint topology.LocalIndex
	// Class is the connection's service class (0 = highest priority);
	// multi-class policies degrade lower-priority elastic connections
	// first. The zero value keeps single-class behavior.
	Class ServiceClass
}

// AddConnection registers a connection occupying the cell and returns
// the granted bandwidth (always Min for rigid connections). The caller
// must have verified that Min fits (AdmitNew/AdmitHandOff with
// bw = Min); AddConnection panics when it does not.
func (e *Engine) AddConnection(id ConnID, spec ConnSpec, now float64) int {
	min, max := spec.Min, spec.Max
	if max == 0 {
		max = min
	}
	if min <= 0 || max < min {
		panic(fmt.Sprintf("core: bad bandwidth range [%d,%d]", min, max))
	}
	hint := spec.Hint
	if hint == topology.Self {
		hint = NoHint
	}
	if hint != NoHint && (hint < 1 || int(hint) > e.cfg.Degree) {
		panic(fmt.Sprintf("core: hint %d outside neighbor range [1,%d]", hint, e.cfg.Degree))
	}
	if int(int32(hint)) != int(hint) || int(int32(spec.Class)) != int(spec.Class) {
		panic(fmt.Sprintf("core: hint %d or class %d outside int32", hint, spec.Class))
	}
	e.lock()
	defer e.unlock()
	if _, dup := e.index[id]; dup {
		panic(fmt.Sprintf("core: duplicate connection %d", id))
	}
	room := e.cfg.Capacity + e.cfg.HandOffMargin - e.used - e.pledged
	if room < min {
		panic(fmt.Sprintf("core: adding %d BU over capacity (%d used, %d pledged, cap %d)",
			min, e.used, e.pledged, e.cfg.Capacity))
	}
	grant := max
	if room < grant {
		grant = room
	}
	i := len(e.conns)
	e.index[id] = i
	e.conns = append(e.conns, conn{id: id, bw: grant, min: min, max: max, prev: spec.Prev, enteredAt: now,
		hint: int32(hint), class: int32(spec.Class)})
	e.linkAge(int32(i))
	e.used += grant
	e.eq5Extend(i, now)
	return grant
}

// DowngradeToFit shrinks adaptive-QoS connections toward their minimum
// until need BUs fit beside the existing load (hand-off absorption, the
// "reducing hand-off drops" role of adaptive QoS). All-or-nothing: if
// even full degradation cannot make room, nothing changes and it
// returns false.
//
// Grant changes leave any live Eq. 5 cache intact: reservation is based
// on each connection's minimum QoS (conn.min), which up/downgrades
// never touch.
//
// It is DowngradeClassToFit with every class eligible and the full soft
// capacity as the limit.
func (e *Engine) DowngradeToFit(need int) bool {
	return e.DowngradeClassToFit(need, math.MinInt, e.cfg.Capacity+e.cfg.HandOffMargin)
}

// DowngradeClassToFit is the multi-class variant of DowngradeToFit: it
// shrinks only connections of service class strictly lower-priority
// than keep (class > keep) toward their minima, until need BUs fit
// under limit (committed bandwidth + need ≤ limit). All-or-nothing,
// like DowngradeToFit; the caller supplies the limit because new-call
// admissions must still clear the reservation (C − B_r) while hand-offs
// may use the full soft capacity.
func (e *Engine) DowngradeClassToFit(need int, keep ServiceClass, limit int) bool {
	if need <= 0 {
		panic(fmt.Sprintf("core: non-positive need %d", need))
	}
	e.lock()
	defer e.unlock()
	short := e.used + e.pledged + need - limit
	if short <= 0 {
		return true
	}
	reclaimable := 0
	for i := range e.conns {
		if ServiceClass(e.conns[i].class) > keep {
			reclaimable += e.conns[i].bw - e.conns[i].min
		}
	}
	if reclaimable < short {
		return false
	}
	for i := range e.conns {
		if short <= 0 {
			break
		}
		if ServiceClass(e.conns[i].class) <= keep {
			continue
		}
		give := e.conns[i].bw - e.conns[i].min
		if give > short {
			give = short
		}
		e.conns[i].bw -= give
		e.used -= give
		short -= give
	}
	e.downgrades++
	return true
}

// RedistributeFree upgrades degraded adaptive-QoS connections toward
// their maxima using bandwidth not claimed by the target reservation
// (the "upgrading QoS if possible" role). It returns the BUs restored.
func (e *Engine) RedistributeFree() int {
	e.lock()
	defer e.unlock()
	headroom := int(float64(e.cfg.Capacity) - e.lastBr)
	free := headroom - e.used - e.pledged
	restored := 0
	for i := range e.conns {
		if free <= 0 {
			break
		}
		take := e.conns[i].max - e.conns[i].bw
		if take > free {
			take = free
		}
		if take > 0 {
			e.conns[i].bw += take
			e.used += take
			free -= take
			restored += take
		}
	}
	if restored > 0 {
		e.upgrades++
	}
	return restored
}

// DegradedBandwidth returns the total shortfall of adaptive-QoS
// connections below their maxima (0 when everyone is at full quality).
func (e *Engine) DegradedBandwidth() int {
	e.lock()
	defer e.unlock()
	deg := 0
	for i := range e.conns {
		deg += e.conns[i].max - e.conns[i].bw
	}
	return deg
}

// RemoveConnection deletes a connection (ended, handed off out, or
// dropped) and frees its bandwidth.
func (e *Engine) RemoveConnection(id ConnID) {
	e.lock()
	defer e.unlock()
	i, ok := e.index[id]
	if !ok {
		panic(fmt.Sprintf("core: removing unknown connection %d", id))
	}
	e.used -= e.conns[i].bw
	e.unlinkAge(int32(i))
	last := len(e.conns) - 1
	if i != last {
		e.conns[i] = e.conns[last]
		e.index[e.conns[i].id] = i
		e.relinkAge(int32(i))
	}
	e.conns = e.conns[:last]
	delete(e.index, id)
	// The swap carried the connection's Eq. 5 base state; the view moves
	// its term row the same way and re-accumulates only the direction
	// sums (in the new table order, as a from-scratch walk now would — a
	// float sum cannot be patched by subtraction).
	e.eq5Remove(i, last)
}

// linkAge threads the just-appended slot i into the age order: after
// the youngest slot entered no later than it, which is the youngest
// itself — O(1) — whenever connections arrive in time order.
func (e *Engine) linkAge(i int32) {
	cn := &e.conns[i]
	older, younger := e.youngest, int32(-1)
	for older >= 0 && e.conns[older].enteredAt > cn.enteredAt {
		older, younger = e.conns[older].older, older
	}
	cn.older, cn.younger = older, younger
	e.relinkAge(i)
}

// unlinkAge takes slot i out of the age order.
func (e *Engine) unlinkAge(i int32) {
	cn := &e.conns[i]
	if cn.older >= 0 {
		e.conns[cn.older].younger = cn.younger
	}
	if cn.younger >= 0 {
		e.conns[cn.younger].older = cn.older
	} else {
		e.youngest = cn.older
	}
}

// relinkAge points the age-order neighbours of slot i (its links set,
// or just carried there by a swap-removal) at slot i.
func (e *Engine) relinkAge(i int32) {
	cn := &e.conns[i]
	if cn.older >= 0 {
		e.conns[cn.older].younger = i
	}
	if cn.younger >= 0 {
		e.conns[cn.younger].older = i
	} else {
		e.youngest = i
	}
}

// Connection returns a connection's bandwidth, origin and entry time.
func (e *Engine) Connection(id ConnID) (bw int, prev topology.LocalIndex, enteredAt float64, ok bool) {
	e.lock()
	defer e.unlock()
	i, found := e.index[id]
	if !found {
		return 0, 0, 0, false
	}
	c := e.conns[i]
	return c.bw, c.prev, c.enteredAt, true
}

// RecordDeparture feeds a hand-off event quadruplet into the estimator
// (no-op for non-adaptive policies). The record moves the estimator
// generation, so the Eq. 5 view rebuilds on its next query.
func (e *Engine) RecordDeparture(q predict.Quadruplet) {
	if e.patterns == nil {
		return
	}
	e.lock()
	defer e.unlock()
	e.patterns.Record(q)
}

// NoteHandOffArrival drives the T_est controller with one hand-off into
// this cell. For drops it fetches T_soj,max from the neighbors via
// peers (the controller's cap); successful hand-offs don't need it.
func (e *Engine) NoteHandOffArrival(now float64, dropped bool, peers Peers) {
	if obs, ok := e.pol.(HandOffObserver); ok {
		// Policy feedback (e.g. a dynamic guard level) sees every
		// hand-off arrival, before the T_est controller.
		obs.ObserveHandOff(e, now, dropped)
	}
	if e.tc == nil {
		return
	}
	tSojMax := math.Inf(1)
	if dropped {
		// Remote fan-out happens before taking the local lock (see
		// Config.Lock): a neighbor may query us while we gather.
		tSojMax = 0
		unknown := false
		for li := topology.LocalIndex(1); int(li) <= e.cfg.Degree; li++ {
			m, ok := PeerValue(peers.MaxSojourn(li, now))
			if !ok {
				// Unreachable neighbor, or a corrupt frame decoding to
				// ±Inf/NaN: its T_soj,max is unknown. Clamp here so a
				// non-finite value can never enter the T_est window
				// arithmetic and un-cap the controller.
				unknown = true
				continue
			}
			if m > tSojMax {
				tSojMax = m
			}
		}
		e.lock()
		defer e.unlock()
		if tSojMax == 0 {
			if unknown {
				// Every answer was missing: freeze T_est at its current
				// value rather than letting it grow without the
				// T_soj,max cap while the neighborhood is dark.
				tSojMax = e.tc.Test()
			} else {
				// No estimation data anywhere yet: leave T_est free to grow.
				tSojMax = math.Inf(1)
			}
		}
		e.tc.OnHandOff(dropped, tSojMax)
		return
	}
	e.lock()
	defer e.unlock()
	e.tc.OnHandOff(dropped, tSojMax)
}

// OutgoingReservation evaluates Eq. 5 from this (sending) cell's side:
// B_{this,toward} = Σ_j b(C_j) · p_h(C_j → toward within test), using
// this cell's hand-off estimation functions and each connection's extant
// sojourn time. toward must be a neighbor, 1..Degree: any other
// direction is a caller's error and panics.
//
// Results come from the materialized Eq. 5 view (eq5cache.go), in one
// flow: a view that is not current for (now, test, estimator
// generation) is rebuilt with toward's term column materialized in the
// same sweep; a finished sum is a hit; otherwise a column not yet
// materialized is swept once, and the column is summed in table order.
// Timestamps advance incrementally — only connections whose extant
// sojourn reached a selected sojourn a cached term depends on are
// refreshed — so a steady admission burst answers in O(live
// connections) guard checks instead of re-walking every Eq. 4 query,
// allocation-free and bit-identical to a from-scratch walk.
func (e *Engine) OutgoingReservation(now float64, toward topology.LocalIndex, test float64) float64 {
	t := int(toward)
	if t < 1 || t > e.cfg.Degree {
		panic(fmt.Sprintf("core: direction %d outside neighbor range [1,%d]", toward, e.cfg.Degree))
	}
	if m, ok := e.pol.(OutgoingModel); ok {
		// Analytical model (the ExpDwell baseline): the policy replaces
		// the history-based evaluation entirely.
		return m.ModelOutgoing(e, now, toward, test)
	}
	if e.patterns == nil {
		return 0
	}
	e.lock()
	defer e.unlock()
	est := e.patterns.Estimator(now)
	c := &e.eq5
	if !e.eq5Current(now, test, est) {
		e.eq5Rebuild(now, test, est, t)
	}
	if c.done[t] {
		c.hits++
		return c.sums[t]
	}
	if !c.termsDone[t] {
		e.eq5Sweep(t)
		c.termsDone[t] = true
	}
	c.misses++
	c.sums[t] = e.eq5Sum(t)
	c.done[t] = true
	return c.sums[t]
}

// window returns the estimation window Eq. 6 is evaluated over: T_est,
// or the fixed window of the ExpDwell baseline.
func (e *Engine) window() float64 {
	if e.tc == nil {
		return e.cfg.ExpDwellWindow
	}
	e.lock()
	defer e.unlock()
	return e.tc.Test()
}

// ComputeTargetReservation evaluates Eq. 6: B_r = Σ_{i∈A} B_{i,this},
// asking each neighbor for its Eq. 5 contribution within this cell's
// current T_est. It updates B_r^prev and counts one B_r calculation.
// Non-adaptive policies return their fixed reservation. When peers is a
// Prefetcher the terms are gathered in one exchange first; the sum
// still runs in local-index order over the same values.
func (e *Engine) ComputeTargetReservation(now float64, peers Peers) float64 {
	if f, ok := e.pol.(FixedReservationPolicy); ok {
		return f.FixedReservation(e.cfg)
	}
	test := e.window()
	if pf, ok := peers.(Prefetcher); ok {
		peers = pf.Prefetch(now, test)
	}
	// Fan out to the neighbors without holding the local lock.
	br := 0.0
	degraded := false
	for li := topology.LocalIndex(1); int(li) <= e.cfg.Degree; li++ {
		v, ok := PeerValue(peers.OutgoingReservation(li, now, test))
		e.lock()
		if ok {
			e.lastOut[li-1] = v
			e.lastOutAt[li-1] = now
		} else {
			// Unreachable neighbor (or a corrupt value): substitute the
			// conservative fallback instead of silently under-reserving.
			degraded = true
			v = e.fallbackContribution(int(li), now)
		}
		e.unlock()
		br += v
	}
	e.lock()
	e.lastBr = br
	e.brCalcs++
	e.lastBrDegraded = degraded
	if degraded {
		e.degradedBrCalcs++
	}
	e.unlock()
	return br
}

// BrDegraded reports whether the most recent B_r computation had to
// substitute a fallback contribution for an unreachable neighbor.
func (e *Engine) BrDegraded() bool {
	e.lock()
	defer e.unlock()
	return e.lastBrDegraded
}

// committed returns used plus pledged bandwidth (what admissions must
// clear) under the caller's lock discipline.
func (e *Engine) committed() int {
	e.lock()
	defer e.unlock()
	return e.used + e.pledged
}

// AdmitHandOff tests whether a hand-off of bw BUs fits: reserved
// bandwidth is usable by hand-offs, so the only constraint is capacity
// (including outstanding pledges) — plus the CDMA soft-capacity margin
// when configured.
func (e *Engine) AdmitHandOff(bw int) bool {
	e.lock()
	defer e.unlock()
	return e.used+e.pledged+bw <= e.cfg.Capacity+e.cfg.HandOffMargin
}

// AdmitNew runs the policy's admission test for a new connection of bw
// BUs requested at time now (paper §4.3). It recomputes B_r as required
// by the policy but does not register the connection; call AddConnection
// after a positive decision. The request carries the zero (highest
// priority) service class; AdmitNewRequest takes an explicit one.
func (e *Engine) AdmitNew(now float64, bw int, peers Peers) Decision {
	return e.AdmitNewRequest(now, Request{Bandwidth: bw}, peers)
}

// AdmitNewRequest dispatches a new-call admission to the policy. The
// decision context is reused across calls, keeping the hot path
// allocation-free — hence the Engine contract: one admission at a time,
// serialized by the caller (not by Config.Lock) through the
// AddConnection that commits a positive decision.
func (e *Engine) AdmitNewRequest(now float64, req Request, peers Peers) Decision {
	if req.Bandwidth <= 0 {
		panic(fmt.Sprintf("core: non-positive bandwidth %d", req.Bandwidth))
	}
	if e.traits.UsesPeers {
		// Gather before the policy asks: AC3's snapshots come first and
		// ride on the same replies as Eq. 6's terms.
		if pf, ok := peers.(Prefetcher); ok {
			peers = pf.Prefetch(now, e.window())
		}
	}
	e.ctx = PolicyContext{Now: now, Bandwidth: req.Bandwidth, Class: req.Class, engine: e, peers: peers}
	return e.finishDecision(e.pol.DecideNew(&e.ctx))
}

// AdmitHandOffRequest dispatches a hand-off admission to the policy.
// Every built-in policy answers with the base capacity test (see
// AdmitHandOff); custom policies may additionally degrade lower-class
// connections or consult neighbors.
func (e *Engine) AdmitHandOffRequest(now float64, req Request, peers Peers) Decision {
	if req.Bandwidth <= 0 {
		panic(fmt.Sprintf("core: non-positive bandwidth %d", req.Bandwidth))
	}
	e.ctx = PolicyContext{Now: now, Bandwidth: req.Bandwidth, Class: req.Class, HandOff: true, engine: e, peers: peers}
	return e.finishDecision(e.pol.DecideHandOff(&e.ctx))
}

// finishDecision books degraded-mode accounting for an admission test.
func (e *Engine) finishDecision(d Decision) Decision {
	if d.Degraded {
		e.lock()
		e.degradedAdmissions++
		e.unlock()
	}
	return d
}

// MaxSojourn returns this cell's current T_soj,max (largest selected
// sojourn in its estimation functions); 0 for non-adaptive policies.
func (e *Engine) MaxSojourn(now float64) float64 {
	if e.patterns == nil {
		return 0
	}
	e.lock()
	defer e.unlock()
	return e.patterns.MaxSojourn(now)
}

// SweepHistory evicts out-of-date quadruplets from the estimation
// caches (the §3.1 deletion rule); the owner calls it periodically.
// No-op for non-adaptive policies and infinite estimation intervals.
func (e *Engine) SweepHistory(t float64) {
	if e.patterns == nil {
		return
	}
	e.lock()
	defer e.unlock()
	e.patterns.SweepAt(t)
}
