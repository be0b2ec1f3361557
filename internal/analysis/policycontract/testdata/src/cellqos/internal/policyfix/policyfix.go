// Package policyfix is the policycontract fixture: AdmissionPolicy
// implementations violating each clause of the DESIGN.md §15 contract
// next to the compliant idioms.
package policyfix

import (
	"math/rand/v2"
	"time"

	"cellqos/internal/core"
)

// ---------------------------------------------------------------------
// cellstate: mutable per-cell state without CellStater. This is the
// pre-fix regression shape from the rival-policy sweep: an adaptive
// guard level mutated in place on the config's shared policy value.

type leakyGuard struct {
	guard int
}

func (p *leakyGuard) Name() string              { return "leaky-guard" }
func (p *leakyGuard) Traits() core.PolicyTraits { return core.PolicyTraits{} }

func (p *leakyGuard) DecideNew(ctx *core.PolicyContext) core.Decision {
	p.guard++ // want `policy leakyGuard mutates receiver state in DecideNew but does not implement CellStater`
	return core.Decision{Admitted: ctx.Committed()+ctx.Bandwidth <= ctx.Capacity()-p.guard}
}

func (p *leakyGuard) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: ctx.HandOffRoom()}
}

// ---------------------------------------------------------------------
// shallowclone: CellStater present but the clone hands back the
// receiver, aliasing the prototype's mutable state.

type shallowBucket struct {
	tokens float64
}

func (p *shallowBucket) Name() string              { return "shallow-bucket" }
func (p *shallowBucket) Traits() core.PolicyTraits { return core.PolicyTraits{} }

// CloneCellState want-cases: the receiver return and the missing fresh
// composite literal are each findings.
func (p *shallowBucket) CloneCellState() core.AdmissionPolicy { // want `CloneCellState of shallowBucket never constructs a fresh shallowBucket`
	return p // want `CloneCellState of shallowBucket returns its receiver`
}

func (p *shallowBucket) DecideNew(ctx *core.PolicyContext) core.Decision {
	p.tokens -= float64(ctx.Bandwidth)
	return core.Decision{Admitted: p.tokens >= 0}
}

func (p *shallowBucket) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: ctx.HandOffRoom()}
}

// ---------------------------------------------------------------------
// Compliant: mutable state behind CellStater with a deep clone.

type goodBucket struct {
	Burst  float64
	tokens float64
}

func (p *goodBucket) Name() string              { return "good-bucket" }
func (p *goodBucket) Traits() core.PolicyTraits { return core.PolicyTraits{} }

// CloneCellState builds a fresh instance: knobs copied, state reset.
func (p *goodBucket) CloneCellState() core.AdmissionPolicy {
	return &goodBucket{Burst: p.Burst, tokens: p.Burst}
}

func (p *goodBucket) DecideNew(ctx *core.PolicyContext) core.Decision {
	p.tokens -= float64(ctx.Bandwidth)
	return core.Decision{Admitted: p.tokens >= 0}
}

func (p *goodBucket) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: ctx.HandOffRoom()}
}

// ---------------------------------------------------------------------
// entropy + maprange: wall clock, global rand, and map ranging on the
// decision path, including through a package-local helper.

type noisyPolicy struct{}

func (noisyPolicy) Name() string              { return "noisy" }
func (noisyPolicy) Traits() core.PolicyTraits { return core.PolicyTraits{} }

func (noisyPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	deadline := time.Now().Add(time.Second) // want `time.Now on the decision path of policy noisyPolicy`
	_ = deadline
	loads := map[int]float64{1: 0.5}
	sum := 0.0
	for _, v := range loads { // want `map range on the decision path of policy noisyPolicy`
		sum += v
	}
	return core.Decision{Admitted: sum < 1}
}

func (noisyPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: jitteredRoom(ctx)}
}

// jitteredRoom is reached from DecideHandOff: the helper's entropy is
// on the decision path too.
func jitteredRoom(ctx *core.PolicyContext) bool {
	return rand.Float64() < 0.5 // want `global rand.Float64 on the decision path of policy noisyPolicy`
}

// ---------------------------------------------------------------------
// Not this analyzer's rule: Peers/PeerValue reads with the degraded
// signal thrown away, next to the compliant branch-on-ok idiom. The
// peervalue analyzer owns the ok-bool rule module-wide (its fixture
// carries the want for each of these shapes), so policycontract must
// stay silent on every line here — one diagnostic per violation, not
// two.

type deafPolicy struct{}

func (deafPolicy) Name() string              { return "deaf" }
func (deafPolicy) Traits() core.PolicyTraits { return core.PolicyTraits{UsesPeers: true} }

func (deafPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	peers := ctx.Peers()
	peers.RecomputeReservation(0, ctx.Now)
	v, _ := peers.OutgoingReservation(0, ctx.Now, 1.0)
	return core.Decision{Admitted: v < 1}
}

func (deafPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	w, _ := core.PeerValue(ctx.Peers().MaxSojourn(0, ctx.Now))
	return core.Decision{Admitted: w > 0}
}

type listeningPolicy struct{}

func (listeningPolicy) Name() string              { return "listening" }
func (listeningPolicy) Traits() core.PolicyTraits { return core.PolicyTraits{UsesPeers: true} }

// DecideNew is the compliant idiom: every ok consumed, fail closed.
func (listeningPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	v, ok := core.PeerValue(ctx.Peers().OutgoingReservation(0, ctx.Now, 1.0))
	if !ok {
		return core.Decision{Degraded: true}
	}
	return core.Decision{Admitted: v < 1}
}

func (listeningPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: ctx.HandOffRoom()}
}

// ---------------------------------------------------------------------
// Suppression: the escape hatch holds for an acknowledged violation.

type excusedPolicy struct{}

func (excusedPolicy) Name() string              { return "excused" }
func (excusedPolicy) Traits() core.PolicyTraits { return core.PolicyTraits{} }

func (excusedPolicy) DecideNew(ctx *core.PolicyContext) core.Decision {
	_ = time.Now() //cellqos:allow policycontract fixture: suppression coverage for the entropy clause
	return core.Decision{Admitted: true}
}

func (excusedPolicy) DecideHandOff(ctx *core.PolicyContext) core.Decision {
	return core.Decision{Admitted: ctx.HandOffRoom()}
}
