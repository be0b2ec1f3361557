package core

import (
	"fmt"
	"math"
	"strings"

	"cellqos/internal/topology"
)

// ServiceClass ranks a connection's traffic class for multi-class
// admission policies: 0 is the highest priority, larger values are
// increasingly degradable. The paper's two-class mix maps voice to
// ClassRealTime and video to ClassStreaming; policies that ignore
// classes treat every request alike.
type ServiceClass int

const (
	// ClassRealTime is the highest-priority class (the paper's voice).
	ClassRealTime ServiceClass = 0
	// ClassStreaming marks degradable streaming traffic (the paper's
	// video, the natural target of adaptive-QoS downgrades).
	ClassStreaming ServiceClass = 1
)

// Request describes one admission question: how much bandwidth, for
// which service class. The zero Class is the highest priority, so
// callers that predate service classes keep their behavior.
type Request struct {
	// Bandwidth is the requested minimum bandwidth in BUs.
	Bandwidth int
	// Class is the request's service class (0 = highest priority).
	Class ServiceClass
}

// PolicyTraits declares what machinery a policy needs from its engine
// and network. The wiring layers branch on traits instead of policy
// identity, so a policy added tomorrow composes with sharding, async
// signaling and the estimator without touching them.
type PolicyTraits struct {
	// Adaptive policies run the predictive reservation machinery: the
	// quadruplet estimator, the T_est controller, and the periodic
	// history sweep.
	Adaptive bool
	// UsesPeers policies consult neighbor cells while deciding (Eq. 5/6
	// fan-out), so the async wiring must maintain mirror peers for them.
	UsesPeers bool
	// MobSpec policies need the network layer to pledge bandwidth along
	// each connection's mobility specification (the §6 baseline); the
	// async wiring rejects them.
	MobSpec bool
}

// AdmissionPolicy is the pluggable admission-control scheme: one value
// decides new-call and hand-off admissions for a cell through the
// primitives a PolicyContext exposes. Implementations must be
// deterministic functions of the context and their own per-cell state —
// no wall clock, no global RNG — so simulations stay reproducible.
//
// Degraded-peer obligation: a policy that consults peers passes every
// float they return through PeerValue and treats a failed answer
// (ok=false, or a value PeerValue rejects) as unknown — fail closed
// (deny, reserve conservatively) and report Decision.Degraded — never
// as "contributes nothing". The built-in AC2/AC3 implementations are
// the reference behavior.
//
// Optional extension interfaces: CellStater (per-cell mutable state),
// HandOffObserver (feedback from hand-off outcomes),
// FixedReservationPolicy (non-adaptive B_r), OutgoingModel (analytic
// Eq. 5 replacement), PolicyValidator (config invariants).
type AdmissionPolicy interface {
	// Name is the policy's one spelling: PolicyByName matches it
	// case-insensitively, and reports print it.
	Name() string
	// Traits declares the machinery this policy needs.
	Traits() PolicyTraits
	// DecideNew runs the policy's admission test for a new connection.
	DecideNew(ctx *PolicyContext) Decision
	// DecideHandOff runs the policy's admission test for a hand-off
	// arrival. Reserved bandwidth is usable by hand-offs, so most
	// policies answer with ctx.HandOffRoom().
	DecideHandOff(ctx *PolicyContext) Decision
}

// CellStater is implemented by policies with per-cell mutable state
// (token buckets, dynamic guard levels). NewEngine calls CloneCellState
// once per cell and dispatches to the returned instance, so state never
// leaks between cells or between runs sharing one policy value. The
// clone must be deep: every mutable field reset or copied, never shared
// through a pointer, slice, or map with the prototype — the
// policycontract analyzer enforces this shape.
type CellStater interface {
	CloneCellState() AdmissionPolicy
}

// HandOffObserver receives every hand-off arrival at the cell, dropped
// or not, before the engine's own T_est controller sees it. Policies
// use it to adapt per-cell state (e.g. a dynamic guard level) to
// observed hand-off pressure. Called without the engine lock held.
type HandOffObserver interface {
	ObserveHandOff(e *Engine, now float64, dropped bool)
}

// FixedReservationPolicy is implemented by policies whose target
// reservation does not come from the Eq. 5/6 neighbor fan-out:
// ComputeTargetReservation returns FixedReservation directly (without
// counting an Eq. 6 evaluation), and NewEngine seeds B_r^prev with it.
type FixedReservationPolicy interface {
	FixedReservation(cfg Config) float64
}

// OutgoingModel replaces the history-based Eq. 5 evaluation of
// Engine.OutgoingReservation with an analytic model (the ExpDwell
// baseline's memoryless exponential). Called without the engine lock
// held; use the engine's exported accessors.
type OutgoingModel interface {
	ModelOutgoing(e *Engine, now float64, toward topology.LocalIndex, test float64) float64
}

// PolicyValidator lets a policy check the config fields it consumes;
// Config.Validate calls it after the generic invariants.
type PolicyValidator interface {
	ValidateConfig(cfg Config) error
}

// PolicyContext exposes the engine primitives an admission decision may
// consult. One context is reused per engine (the admission hot path is
// allocation-free), so policies must not retain it past the decision,
// and an engine runs one admission at a time (see Engine): Config.Lock
// guards state against other engines' queries, not a second admission.
type PolicyContext struct {
	// Now is the decision time in simulation seconds.
	Now float64
	// Bandwidth is the requested bandwidth in BUs.
	Bandwidth int
	// Class is the request's service class (0 = highest priority).
	Class ServiceClass
	// HandOff marks a hand-off admission (vs a new call).
	HandOff bool

	engine *Engine
	peers  Peers
}

// Committed returns B_u plus pledged bandwidth — what admissions must
// clear.
func (ctx *PolicyContext) Committed() int { return ctx.engine.committed() }

// Capacity returns the cell's link capacity C.
func (ctx *PolicyContext) Capacity() int { return ctx.engine.cfg.Capacity }

// HandOffMargin returns the CDMA soft-capacity margin.
func (ctx *PolicyContext) HandOffMargin() int { return ctx.engine.cfg.HandOffMargin }

// Degree returns the number of adjacent cells.
func (ctx *PolicyContext) Degree() int { return ctx.engine.cfg.Degree }

// Config returns the engine's configuration.
func (ctx *PolicyContext) Config() Config { return ctx.engine.cfg }

// Peers returns the neighbor access interface for this decision.
func (ctx *PolicyContext) Peers() Peers { return ctx.peers }

// ComputeTargetReservation evaluates Eq. 6 at the decision time,
// updating B_r^prev and the engine's calculation counters.
func (ctx *PolicyContext) ComputeTargetReservation() float64 {
	return ctx.engine.ComputeTargetReservation(ctx.Now, ctx.peers)
}

// BrDegraded reports whether the most recent B_r computation had to
// substitute a fallback contribution for an unreachable neighbor.
func (ctx *PolicyContext) BrDegraded() bool { return ctx.engine.BrDegraded() }

// HandOffRoom runs the base hand-off capacity test: reserved bandwidth
// is usable by hand-offs, so the only constraint is capacity (plus the
// CDMA soft-capacity margin).
func (ctx *PolicyContext) HandOffRoom() bool { return ctx.engine.AdmitHandOff(ctx.Bandwidth) }

// DowngradeClassToFit shrinks adaptive-QoS connections of service
// class strictly lower-priority than keep toward their minima until
// need BUs fit under limit; see Engine.DowngradeClassToFit.
func (ctx *PolicyContext) DowngradeClassToFit(need int, keep ServiceClass, limit int) bool {
	return ctx.engine.DowngradeClassToFit(need, keep, limit)
}

// ---------------------------------------------------------------------
// Roster

// roster builds every admission scheme, in the arena's report order:
// the paper's adaptive schemes, the static/none baselines, the §6
// literature baselines, then the rivals of rivals.go. A scheme's name is
// written once, in its Name method.
var roster = [...]func() AdmissionPolicy{
	func() AdmissionPolicy { return ac1Policy{} },
	func() AdmissionPolicy { return ac2Policy{} },
	func() AdmissionPolicy { return ac3Policy{} },
	func() AdmissionPolicy { return staticPolicy{} },
	func() AdmissionPolicy { return nonePolicy{} },
	func() AdmissionPolicy { return mobSpecPolicy{} },
	func() AdmissionPolicy { return expDwellPolicy{} },
	func() AdmissionPolicy { return &guardDynamicPolicy{guard: guardStart} },
	func() AdmissionPolicy { return multiClassPolicy{} },
	func() AdmissionPolicy { return &tokenBucketPolicy{} },
}

// PolicyByName returns a fresh roster policy by name (case-insensitive).
// Unknown names return an error listing the roster.
func PolicyByName(name string) (AdmissionPolicy, error) {
	for _, build := range roster {
		if p := build(); strings.EqualFold(p.Name(), name) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("core: unknown policy %q (roster: %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// MustPolicy is PolicyByName for statically known names; it panics on
// unknown names.
func MustPolicy(name string) AdmissionPolicy {
	p, err := PolicyByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// PolicyNames lists every roster policy's name, in roster order.
func PolicyNames() []string {
	names := make([]string, len(roster))
	for i, build := range roster {
		names[i] = build().Name()
	}
	return names
}

// ---------------------------------------------------------------------
// Built-in schemes (paper Table 1 and §6 baselines).

// handOffRoomDecision is the shared hand-off test of every built-in:
// hand-offs are admitted on the base capacity check alone, whatever the
// policy.
func handOffRoomDecision(ctx *PolicyContext) Decision {
	return Decision{Admitted: ctx.HandOffRoom()}
}

// decideReservedNew is the AC1/ExpDwell new-call test: admit iff
// B_u + b_new ≤ C − B_r with B_r freshly computed.
func decideReservedNew(ctx *PolicyContext) Decision {
	br := ctx.ComputeTargetReservation()
	return Decision{
		Admitted: float64(ctx.Committed()+ctx.Bandwidth) <= float64(ctx.Capacity())-br,
		BrCalcs:  1,
		Degraded: ctx.BrDegraded(),
	}
}

// ac1Policy ("AC1") checks only the current cell: admit iff
// B_u + b_new ≤ C − B_r, with B_r freshly computed.
type ac1Policy struct{}

func (ac1Policy) Name() string                              { return "AC1" }
func (ac1Policy) Traits() PolicyTraits                      { return PolicyTraits{Adaptive: true, UsesPeers: true} }
func (ac1Policy) DecideNew(ctx *PolicyContext) Decision     { return decideReservedNew(ctx) }
func (ac1Policy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

// ac2Policy ("AC2") additionally requires every adjacent cell to
// recompute its own B_r and have room to reserve it fully.
type ac2Policy struct{}

func (ac2Policy) Name() string                              { return "AC2" }
func (ac2Policy) Traits() PolicyTraits                      { return PolicyTraits{Adaptive: true, UsesPeers: true} }
func (ac2Policy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

func (ac2Policy) DecideNew(ctx *PolicyContext) Decision {
	ok := true
	degraded := false
	calcs := 0
	peers := ctx.Peers()
	for li := topology.LocalIndex(1); int(li) <= ctx.Degree(); li++ {
		used, cap_, nbr, okCall := peers.RecomputeReservation(li, ctx.Now)
		calcs++
		if nbr, okCall = PeerValue(nbr, okCall); !okCall {
			// Unknown neighbor state: conservatively assume it cannot
			// reserve its target — protect P_HD at the cost of P_CB.
			degraded = true
			ok = false
			continue
		}
		if float64(used) > float64(cap_)-nbr {
			ok = false
		}
	}
	br := ctx.ComputeTargetReservation()
	calcs++
	if ctx.BrDegraded() {
		degraded = true
	}
	if float64(ctx.Committed()+ctx.Bandwidth) > float64(ctx.Capacity())-br {
		ok = false
	}
	return Decision{Admitted: ok, BrCalcs: calcs, Degraded: degraded}
}

// ac3Policy ("AC3") is the hybrid: only adjacent cells that appear
// unable to reserve their previous target (B_u,i + B_r,i^prev > C_i)
// recompute and participate.
type ac3Policy struct{}

func (ac3Policy) Name() string                              { return "AC3" }
func (ac3Policy) Traits() PolicyTraits                      { return PolicyTraits{Adaptive: true, UsesPeers: true} }
func (ac3Policy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

func (ac3Policy) DecideNew(ctx *PolicyContext) Decision {
	ok := true
	degraded := false
	calcs := 0
	peers := ctx.Peers()
	for li := topology.LocalIndex(1); int(li) <= ctx.Degree(); li++ {
		used, cap_, lastBr, okSnap := peers.Snapshot(li)
		if lastBr, okSnap = PeerValue(lastBr, okSnap); okSnap && float64(used)+lastBr <= float64(cap_) {
			continue // neighbor appears able to reserve its target
		}
		// The neighbor appears unable — or its health is unknown
		// (!okSnap), which must not read as "healthy": make it
		// recompute and prove it has room.
		usedNew, capNew, nbr, okRe := peers.RecomputeReservation(li, ctx.Now)
		calcs++
		if nbr, okRe = PeerValue(nbr, okRe); !okRe {
			degraded = true
			ok = false
			continue
		}
		if float64(usedNew) > float64(capNew)-nbr {
			ok = false
		}
	}
	br := ctx.ComputeTargetReservation()
	calcs++
	if ctx.BrDegraded() {
		degraded = true
	}
	if float64(ctx.Committed()+ctx.Bandwidth) > float64(ctx.Capacity())-br {
		ok = false
	}
	return Decision{Admitted: ok, BrCalcs: calcs, Degraded: degraded}
}

// staticPolicy ("static") reserves a fixed G BUs permanently (the
// mid-80s guard-channel baseline the paper compares against).
type staticPolicy struct{}

func (staticPolicy) Name() string         { return "static" }
func (staticPolicy) Traits() PolicyTraits { return PolicyTraits{} }

func (staticPolicy) DecideNew(ctx *PolicyContext) Decision {
	return Decision{Admitted: ctx.Committed()+ctx.Bandwidth <= ctx.Capacity()-ctx.Config().StaticReserve}
}

func (staticPolicy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

func (staticPolicy) FixedReservation(cfg Config) float64 { return float64(cfg.StaticReserve) }

func (staticPolicy) ValidateConfig(cfg Config) error {
	if cfg.StaticReserve < 0 || cfg.StaticReserve > cfg.Capacity {
		return fmt.Errorf("core: static reserve %d outside [0,%d]", cfg.StaticReserve, cfg.Capacity)
	}
	return nil
}

// nonePolicy ("none") performs no reservation at all: admit iff
// B_u + b_new ≤ C.
type nonePolicy struct{}

func (nonePolicy) Name() string         { return "none" }
func (nonePolicy) Traits() PolicyTraits { return PolicyTraits{} }

func (nonePolicy) DecideNew(ctx *PolicyContext) Decision {
	return Decision{Admitted: ctx.Committed()+ctx.Bandwidth <= ctx.Capacity()}
}

func (nonePolicy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

func (nonePolicy) FixedReservation(Config) float64 { return 0 }

// mobSpecPolicy ("mob-spec") is a Talukdar/Badrinath/Acharya-style
// baseline (the paper's §6, ref. [14]): each admitted connection pledges
// its bandwidth in every cell of its declared mobility specification for
// its whole lifetime, so its hand-offs can never be dropped inside the
// spec. The paper criticizes the approach as "usually excessive"; the
// pledge fan-out is orchestrated by the network layer (the engine
// contributes the per-cell pledge pool and the admission arithmetic).
type mobSpecPolicy struct{}

func (mobSpecPolicy) Name() string         { return "mob-spec" }
func (mobSpecPolicy) Traits() PolicyTraits { return PolicyTraits{MobSpec: true} }

func (mobSpecPolicy) DecideNew(ctx *PolicyContext) Decision {
	// The own-cell test; the network layer additionally pledges the
	// bandwidth across the mobility specification.
	return Decision{Admitted: ctx.Committed()+ctx.Bandwidth <= ctx.Capacity()}
}

func (mobSpecPolicy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

// expDwellPolicy ("exp-dwell") is a Naghshineh–Schwartz-style baseline
// (the paper's §6, ref. [10]): it reserves for expected hand-offs like
// AC1 but models mobility analytically instead of from history — every
// connection's remaining dwell is assumed exponential with mean
// ExpDwellMean, and its direction uniform over the cell's neighbors, over
// a fixed estimation window ExpDwellWindow. The paper criticizes exactly
// these assumptions (§6): no direction prediction, impractical
// exponential sojourns, and no adaptation.
type expDwellPolicy struct{}

func (expDwellPolicy) Name() string                              { return "exp-dwell" }
func (expDwellPolicy) Traits() PolicyTraits                      { return PolicyTraits{UsesPeers: true} }
func (expDwellPolicy) DecideNew(ctx *PolicyContext) Decision     { return decideReservedNew(ctx) }
func (expDwellPolicy) DecideHandOff(ctx *PolicyContext) Decision { return handOffRoomDecision(ctx) }

// ModelOutgoing is the Naghshineh–Schwartz analytic Eq. 5:
// P(hand-off within test) = 1 − e^(−test/τ), direction uniform over the
// cell's neighbors. The extant sojourn is irrelevant — the exponential
// is memoryless, which is precisely the assumption the paper rejects.
func (expDwellPolicy) ModelOutgoing(e *Engine, now float64, toward topology.LocalIndex, test float64) float64 {
	used := e.UsedBandwidth()
	cfg := e.Config()
	p := (1 - math.Exp(-test/cfg.ExpDwellMean)) / float64(cfg.Degree)
	return float64(used) * p
}

func (expDwellPolicy) ValidateConfig(cfg Config) error {
	if !(cfg.ExpDwellMean > 0 && cfg.ExpDwellWindow > 0) {
		return fmt.Errorf("core: ExpDwell requires positive mean dwell and window, got τ=%v T=%v",
			cfg.ExpDwellMean, cfg.ExpDwellWindow)
	}
	return nil
}
