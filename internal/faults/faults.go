// Package faults injects deterministic, seedable link faults into the
// distributed signaling plane. A Link wraps one direction of an
// io.ReadWriteCloser and perturbs its writes — dropping, delaying,
// duplicating, corrupting or truncating whole frames, black-holing them
// during a one-way partition, or crashing the link outright after a
// scheduled number of writes. Reads pass through untouched: faults on
// the reverse direction belong to the remote end's own Link, so a
// one-way partition is simply one side's Partition() while the other
// keeps flowing.
//
// All randomness comes from a PCG stream seeded by Config.Seed, so a
// chaos run replays exactly; all counters are atomic, so tests can
// assert exact fault tallies while the signaling goroutines are live.
package faults

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrLinkFailed is returned by writes after the crash schedule fires or
// Fail is called; the underlying connection is closed at that point, so
// the remote read pump observes the crash too.
var ErrLinkFailed = errors.New("faults: link failed (crash schedule)")

// Config parameterizes one direction's fault process. Probabilities are
// per write (the signaling codec issues exactly one Write per frame, so
// "per write" is "per frame"); the zero value injects nothing.
type Config struct {
	// Seed seeds the link's private PCG stream. Two links with equal
	// seeds and configs draw identical fault sequences.
	Seed uint64
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Duplicate is the probability a frame is written twice (the
	// duplicate carries the same seq, so the receiver's pump discards
	// the second response as stale).
	Duplicate float64
	// Corrupt is the probability one random byte of the frame is
	// bit-flipped before writing.
	Corrupt float64
	// Truncate is the probability the frame is cut short (a random
	// strict prefix is written), desynchronizing the remote decoder.
	Truncate float64
	// Delay stalls every write; DelayJitter adds a uniform random extra
	// in [0, DelayJitter).
	Delay       time.Duration
	DelayJitter time.Duration
	// FailAfter crashes the link (closes the underlying connection)
	// when the FailAfter-th write is attempted; 0 never crashes. A
	// restart is the owner's job — see BSNode.SetReconnect.
	FailAfter uint64
}

// Validate checks probability ranges.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", c.Drop}, {"duplicate", c.Duplicate}, {"corrupt", c.Corrupt}, {"truncate", c.Truncate}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if c.Delay < 0 || c.DelayJitter < 0 {
		return fmt.Errorf("faults: negative delay")
	}
	return nil
}

// Counters is a snapshot of one Link's fault tallies.
type Counters struct {
	Writes      uint64 // write attempts seen (faulted or not)
	Dropped     uint64 // frames discarded by the drop process
	Blackholed  uint64 // frames discarded by an active partition
	Duplicated  uint64
	Corrupted   uint64
	Truncated   uint64
	Delayed     uint64
	Crashes     uint64 // 0 or 1: the crash schedule fired
	ReadsPassed uint64 // reads forwarded untouched
}

// Link is one fault-injected direction of a connection.
type Link struct {
	inner io.ReadWriteCloser
	cfg   Config

	mu  sync.Mutex // guards rng and the write path's draw order
	rng *rand.Rand

	writes      atomic.Uint64
	dropped     atomic.Uint64
	blackholed  atomic.Uint64
	duplicated  atomic.Uint64
	corrupted   atomic.Uint64
	truncated   atomic.Uint64
	delayed     atomic.Uint64
	crashes     atomic.Uint64
	readsPassed atomic.Uint64

	partitioned atomic.Bool
	failed      atomic.Bool
}

// Wrap builds a fault-injected Link over conn. It panics on an invalid
// config — fault plans are test/CLI inputs, not runtime data.
func Wrap(conn io.ReadWriteCloser, cfg Config) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Link{
		inner: conn,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0xfa17_fa17_fa17_fa17)),
	}
}

// Pipe returns the two ends of an in-memory connection (net.Pipe), each
// wrapped with its own fault config — the a side's faults afflict
// frames a writes toward b, and vice versa.
//
//cellqos:allow unreached internal/chaos's tests and internal/service's TestSoakChaosLadder wire faulty in-memory links with it
func Pipe(aCfg, bCfg Config) (a, b *Link) {
	ca, cb := net.Pipe()
	return Wrap(ca, aCfg), Wrap(cb, bCfg)
}

// Partition starts a one-way partition: every write is black-holed
// (reported as successful to the writer) until Heal. Reads still flow.
func (l *Link) Partition() { l.partitioned.Store(true) }

// Heal ends the partition.
//
//cellqos:allow unreached internal/chaos's TestChaosMeshPartitionHealReconverges and TestChaosStarPartitionHeal end their partitions with it
func (l *Link) Heal() { l.partitioned.Store(false) }

// Fail crashes the link immediately (same effect as the FailAfter
// schedule firing): the underlying connection closes and every further
// write returns ErrLinkFailed.
func (l *Link) Fail() {
	if l.failed.CompareAndSwap(false, true) {
		l.crashes.Add(1)
		l.inner.Close()
	}
}

// Counters snapshots the fault tallies.
func (l *Link) Counters() Counters {
	return Counters{
		Writes:      l.writes.Load(),
		Dropped:     l.dropped.Load(),
		Blackholed:  l.blackholed.Load(),
		Duplicated:  l.duplicated.Load(),
		Corrupted:   l.corrupted.Load(),
		Truncated:   l.truncated.Load(),
		Delayed:     l.delayed.Load(),
		Crashes:     l.crashes.Load(),
		ReadsPassed: l.readsPassed.Load(),
	}
}

// Read forwards to the underlying connection untouched.
func (l *Link) Read(p []byte) (int, error) {
	n, err := l.inner.Read(p)
	if err == nil {
		l.readsPassed.Add(1)
	}
	return n, err
}

// Write applies the fault process to one frame. Drops and black holes
// report success to the writer — the frame vanishes in flight, exactly
// like a lossy link; the caller discovers the loss by timeout.
func (l *Link) Write(p []byte) (int, error) {
	if l.failed.Load() {
		return 0, ErrLinkFailed
	}
	seq := l.writes.Add(1)
	if fa := l.cfg.FailAfter; fa > 0 && seq >= fa {
		l.Fail()
		return 0, ErrLinkFailed
	}
	if l.partitioned.Load() {
		l.blackholed.Add(1)
		return len(p), nil
	}

	// Draw the whole fault plan for this frame under the lock, in a
	// fixed order, so a seed fully determines the sequence regardless of
	// writer scheduling.
	l.mu.Lock()
	drop := l.cfg.Drop > 0 && l.rng.Float64() < l.cfg.Drop
	dup := l.cfg.Duplicate > 0 && l.rng.Float64() < l.cfg.Duplicate
	corrupt := l.cfg.Corrupt > 0 && l.rng.Float64() < l.cfg.Corrupt
	truncate := l.cfg.Truncate > 0 && l.rng.Float64() < l.cfg.Truncate
	var flipAt, flipBit, cutAt int
	if corrupt && len(p) > 0 {
		flipAt = l.rng.IntN(len(p))
		flipBit = l.rng.IntN(8)
	}
	if truncate && len(p) > 1 {
		cutAt = 1 + l.rng.IntN(len(p)-1)
	}
	jitter := time.Duration(0)
	if l.cfg.DelayJitter > 0 {
		jitter = time.Duration(l.rng.Int64N(int64(l.cfg.DelayJitter)))
	}
	l.mu.Unlock()

	if d := l.cfg.Delay + jitter; d > 0 {
		l.delayed.Add(1)
		time.Sleep(d)
	}
	if drop {
		l.dropped.Add(1)
		return len(p), nil
	}
	buf := p
	if corrupt && len(p) > 0 {
		buf = append([]byte(nil), p...)
		buf[flipAt] ^= 1 << flipBit
		l.corrupted.Add(1)
	}
	if truncate && len(buf) > 1 {
		buf = buf[:cutAt]
		l.truncated.Add(1)
		if _, err := l.inner.Write(buf); err != nil {
			return 0, err
		}
		// Report full success: the writer believes the frame left whole.
		return len(p), nil
	}
	if _, err := l.inner.Write(buf); err != nil {
		return 0, err
	}
	if dup {
		l.duplicated.Add(1)
		if _, err := l.inner.Write(buf); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// Close closes the underlying connection.
func (l *Link) Close() error { return l.inner.Close() }
