// Package shardfix is the shardsafe fixture: mailbox sends with and
// without a lookahead proof, and kernel reads inside and outside event
// handlers.
package shardfix

import (
	"cellqos/internal/sim"
	"cellqos/internal/sim/shard"
)

// Config mirrors the uniform-latency model knobs.
type Config struct {
	SignalingLatency float64
	PeerExchange     float64
}

// sendUniform is the approved construction: Now() plus a latency-named
// term, through a local.
func sendUniform(sh *shard.Shard, cfg Config, dst int, key uint64, fn sim.Event) {
	at := sh.Now() + cfg.SignalingLatency
	sh.Send(dst, at, key, fn)
}

// sendScaled stays provable through products with constants and a
// Lookahead() call.
func sendScaled(sh *shard.Shard, k *shard.Kernel, dst int, key uint64, fn sim.Event) {
	sh.Send(dst, sh.Now()+2*k.Lookahead(), key, fn)
}

// sendChained stays provable when the offset accumulates two latency
// terms (now + exchange + latency associates left).
func sendChained(sh *shard.Shard, cfg Config, dst int, key uint64, fn sim.Event) {
	at := sh.Now() + cfg.PeerExchange + cfg.SignalingLatency
	sh.Send(dst, at, key, fn)
}

// sendLiteral is the regression shape from the kernel's own tests: a
// literal time that only panics on executions crossing a window.
func sendLiteral(sh *shard.Shard, key uint64, fn sim.Event) {
	sh.Send(1, 1.25, key, fn) // want `Send time 1.25 is not provably now\+lookahead`
}

// sendBareNow forgets the latency offset entirely.
func sendBareNow(sh *shard.Shard, dst int, key uint64, fn sim.Event) {
	sh.Send(dst, sh.Now(), key, fn) // want `Send time sh.Now\(\) is not provably now\+lookahead`
}

// sendMagicOffset adds a constant with no latency pedigree.
func sendMagicOffset(sh *shard.Shard, dst int, key uint64, fn sim.Event) {
	at := sh.Now() + 0.5
	sh.Send(dst, at, key, fn) // want `Send time at is not provably now\+lookahead`
}

// sendExcused is a deliberate violation with the annotated escape
// hatch.
func sendExcused(sh *shard.Shard, key uint64, fn sim.Event) {
	sh.Send(1, 0.75, key, fn) //cellqos:allow shardsafe fixture: deliberate lookahead violation
}

// barrierReads is the approved place for cross-shard reads: the
// AtBarrier hook and plain coordinator code.
func barrierReads(k *shard.Kernel) {
	k.AtBarrier(func(now float64) {
		_ = k.Pending()
		_ = k.Fired()
	})
	_ = k.CanceledRetained()
	_ = k.Shard(0)
}

// eventReads violate the window discipline: the kernel surface from
// inside event handlers, directly and nested.
func eventReads(k *shard.Kernel, sh *shard.Shard) {
	sh.MustAfter(1, func(s sim.Scheduler) {
		_ = k.Fired()                                 // want `Kernel.Fired inside an event handler`
		k.Shard(1).MustAfter(1, func(sim.Scheduler) { // want `Kernel.Shard inside an event handler`
			_ = k.Pending() // want `Kernel.Pending inside an event handler`
		})
	})
}

// eventDecl is an event handler by declaration, not literal: the same
// rule applies.
func eventDecl(s sim.Scheduler) {
	_ = pinnedKernel.CanceledRetained() // want `Kernel.CanceledRetained inside an event handler`
}

var pinnedKernel *shard.Kernel

// eventExcused documents a handler that only ever runs on a one-shard
// kernel with the escape hatch.
func eventExcused(k *shard.Kernel, sh *shard.Shard) {
	sh.MustAfter(1, func(s sim.Scheduler) {
		_ = k.Fired() //cellqos:allow shardsafe fixture: one-shard kernel, no other shard mid-window
	})
}
