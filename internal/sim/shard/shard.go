// Package shard provides the parallel discrete-event kernel: it
// partitions a simulation into S shards, each with its own event queue,
// clock, and sequence counter, and runs them concurrently under
// conservative windows. (The serial kernel — one total order on one
// goroutine — is sim.Simulator; DESIGN.md §13 says why there are two.)
//
// Virtual time is cut into windows of length Lookahead on a fixed grid.
// Within a window every shard runs its own events concurrently, one
// goroutine per shard; shards may only touch their own state and
// scheduler. Cross-shard effects travel as timestamped messages via
// Shard.Send, which must target a time at or beyond the window end — the
// conservative guarantee that no shard ever receives an event earlier
// than a time it has already passed. At the window barrier every shard
// merges the messages addressed to it, from all shards, into its own
// queue in (time, key) order — a total order, because the caller-supplied
// key is unique per (time, destination), and one that must not depend on
// the shard count, making delivery order — and hence the whole run —
// identical at any shard count and any goroutine interleaving.
//
// The model layer (internal/cellnet) guarantees byte-identical Reports
// across shard counts by (a) giving every cell and connection its own
// deterministic RNG stream, (b) routing all cross-cell interaction
// through Send keyed by (source cell, per-cell sequence), and (c)
// ensuring same-time events on different shards touch disjoint state.
package shard

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"cellqos/internal/sim"
)

// Config parameterizes a sharded kernel.
type Config struct {
	// Shards is the number of event heaps (≥ 1).
	Shards int
	// Lookahead is the conservative window length in seconds (> 0): a
	// lower bound on the model's cross-shard signaling latency.
	Lookahead float64
}

// message is a cross-shard event in flight between Send and delivery.
type message struct {
	at  float64
	key uint64
	fn  sim.Event
}

// compare orders messages by (at, key): a total order within one
// destination, where Send's contract makes keys unique per time.
func (a message) compare(b message) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// parallelMergeMin is the number of messages at one barrier above which
// the destinations merge on goroutines of their own: below it, starting
// and joining them costs more than the heap pushes they would overlap.
const parallelMergeMin = 512

// Shard is one partition's scheduling surface. It implements
// sim.Scheduler; event callbacks running on the shard receive it as
// their Scheduler argument. Outside a window (before Run, between
// RunUntil calls) any shard may be used from the coordinating goroutine;
// during a window a Shard must only be used by events executing on it.
type Shard struct {
	k     *Kernel
	idx   int
	now   float64
	queue *sim.EventQueue
	fired uint64
	// out[dst] buffers this shard's sends to shard dst until the barrier.
	// The shard appends during its window and sorts each run before the
	// window joins; at the barrier shard dst alone reads and empties it.
	out  [][]message
	runs [][]message // mergeInbox's scratch: the unmerged rest of each source's run
	work func()      // this shard's goroutine body (eachShard), built once: starting it allocates nothing
}

// Kernel is the sharded discrete-event kernel. It implements sim.Kernel.
// The coordinating goroutine owns Run/RunUntil; per-shard goroutines
// exist only inside a window.
type Kernel struct {
	cfg       Config
	shards    []*Shard
	barrier   float64 // clock of the coordinating goroutine
	windowEnd float64 // end of the window being run
	running   bool
	stopped   atomic.Bool
	atBarrier func(now float64)
	phase     func(*Shard)   // what the shard goroutines of eachShard run
	wg        sync.WaitGroup // joins them
}

var _ sim.Kernel = (*Kernel)(nil)
var _ sim.Scheduler = (*Shard)(nil)

// New returns a sharded kernel with all clocks at 0.
func New(cfg Config) *Kernel {
	if cfg.Shards < 1 {
		panic("shard: need at least one shard")
	}
	if !(cfg.Lookahead > 0) {
		panic(fmt.Sprintf("shard: lookahead must be positive, got %v (zero-latency models run on sim.Simulator)", cfg.Lookahead))
	}
	k := &Kernel{cfg: cfg, shards: make([]*Shard, cfg.Shards)}
	for i := range k.shards {
		sh := &Shard{k: k, idx: i, queue: sim.NewEventQueue(), out: make([][]message, cfg.Shards)}
		sh.work = func() {
			defer k.wg.Done()
			k.phase(sh)
		}
		k.shards[i] = sh
	}
	return k
}

// Lookahead returns the conservative window length.
func (k *Kernel) Lookahead() float64 { return k.cfg.Lookahead }

// Shard returns shard i's scheduling surface.
func (k *Kernel) Shard(i int) *Shard { return k.shards[i] }

// Now returns the coordinating clock: the last window barrier.
func (k *Kernel) Now() float64 { return k.barrier }

// Fired returns the total number of events executed across all shards.
// It must not be called from inside a window.
func (k *Kernel) Fired() uint64 {
	var n uint64
	for _, sh := range k.shards {
		n += sh.fired
	}
	return n
}

// Pending returns scheduled, not-yet-fired, not-canceled events across
// all shards. It must not be called from inside a window.
func (k *Kernel) Pending() int {
	n := 0
	for _, sh := range k.shards {
		n += sh.queue.Len()
	}
	return n
}

// AtBarrier registers fn to run on the coordinating goroutine at every
// window barrier, after the window's events have executed and its
// cross-shard messages have been delivered to the target queues (but not
// executed). All shard state is quiescent during the call; conservation
// audits hang here.
func (k *Kernel) AtBarrier(fn func(now float64)) { k.atBarrier = fn }

// Stop halts the run at the barrier of the window in progress: every
// shard finishes the window, its messages are delivered and AtBarrier
// runs, then Run/RunUntil returns with all clocks at that barrier. What
// a stopped run fired is therefore the same at any shard count and any
// goroutine interleaving, and a later Run/RunUntil resumes exactly where
// an unstopped run would have continued.
func (k *Kernel) Stop() { k.stopped.Store(true) }

// Run fires events until every shard's queue drains or Stop is called.
func (k *Kernel) Run() float64 { return k.run(math.Inf(1), false) }

// RunUntil fires events with timestamps ≤ end, then sets all clocks to
// end. Repeated calls with increasing end values resume on the same
// window grid, so a run chunked into many RunUntil calls delivers
// messages at the same barriers as a single call. It panics if end is
// NaN, as Schedule does on a NaN time.
func (k *Kernel) RunUntil(end float64) float64 {
	if math.IsNaN(end) {
		panic("shard: NaN run end")
	}
	return k.run(end, true)
}

// run executes fixed-grid conservative windows, one goroutine per shard
// inside each window when there is more than one shard.
func (k *Kernel) run(end float64, bounded bool) float64 {
	if k.running {
		panic("shard: nested Run")
	}
	if bounded && end < k.barrier {
		return k.barrier
	}
	k.running = true
	defer func() {
		k.running = false
		for _, sh := range k.shards {
			sh.queue.Compact()
		}
	}()
	k.stopped.Store(false)
	L := k.cfg.Lookahead
	for !k.stopped.Load() {
		if bounded && k.barrier >= end {
			break
		}
		if !bounded && k.Pending() == 0 {
			break
		}
		// Next grid point strictly after the current barrier. The grid
		// is anchored at 0 and independent of RunUntil chunking, so
		// k*L barriers line up across differently-chunked runs.
		windowEnd := (math.Floor(k.barrier/L) + 1) * L
		if windowEnd <= k.barrier {
			// Guard against float rounding at huge times.
			windowEnd = k.barrier + L
		}
		if bounded && windowEnd > end {
			windowEnd = end
		}
		k.windowEnd = windowEnd
		k.eachShard(len(k.shards) > 1, (*Shard).runWindow)
		k.barrier = windowEnd
		k.deliver()
		if k.atBarrier != nil {
			k.atBarrier(windowEnd)
		}
	}
	if !k.stopped.Load() && bounded && k.barrier < end {
		k.barrier = end
		for _, sh := range k.shards {
			sh.now = end
		}
	}
	return k.barrier
}

// eachShard calls fn once per shard and returns when every call has: on
// one goroutine per shard when parallel, on the caller's otherwise.
func (k *Kernel) eachShard(parallel bool, fn func(*Shard)) {
	if !parallel {
		for _, sh := range k.shards {
			fn(sh)
		}
		return
	}
	k.phase = fn
	k.wg.Add(len(k.shards))
	for _, sh := range k.shards {
		go sh.work()
	}
	k.wg.Wait()
}

// deliver moves the window's messages onto their destination queues.
// Every shard left its runs sorted (runWindow), so each destination merges
// the runs addressed to it by (time, key) — an order independent of both
// goroutine interleaving (the runs are only read after the window joins)
// and shard count (keys must not encode shard identity, and being unique
// per time they leave no tie for the source order to break). A
// destination touches only its own queue and its own column of runs, so
// a barrier heavy enough to repay the goroutines merges them all at once.
func (k *Kernel) deliver() {
	total := 0
	for _, sh := range k.shards {
		for _, run := range sh.out {
			total += len(run)
		}
	}
	if total == 0 {
		return
	}
	k.eachShard(len(k.shards) > 1 && total > parallelMergeMin, (*Shard).mergeInbox)
}

// mergeInbox schedules the messages every shard buffered for this one,
// in (time, key) order, and empties those buffers.
func (sh *Shard) mergeInbox() {
	runs := sh.runs[:0]
	for _, src := range sh.k.shards {
		if run := src.out[sh.idx]; len(run) > 0 {
			runs = append(runs, run)
		}
	}
	var last message
	for len(runs) > 0 {
		b := 0
		for i := 1; i < len(runs); i++ {
			if runs[i][0].compare(runs[b][0]) < 0 {
				b = i
			}
		}
		m := runs[b][0]
		if last.fn != nil && m.compare(last) == 0 {
			panic(fmt.Sprintf("shard: duplicate message key %#x at t=%v for shard %d", m.key, m.at, sh.idx))
		}
		last = m
		sh.queue.Schedule(m.at, m.fn)
		if runs[b] = runs[b][1:]; len(runs[b]) == 0 {
			runs[b] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	sh.runs = runs
	for _, src := range sh.k.shards {
		clear(src.out[sh.idx]) // an emptied buffer must not keep delivered callbacks alive
		src.out[sh.idx] = src.out[sh.idx][:0]
	}
}

// runWindow fires this shard's events up to the window's end, leaves the
// shard clock there and the window's sends sorted for the barrier. It
// does not look at Stop, which takes effect at the barrier.
func (sh *Shard) runWindow() {
	end := sh.k.windowEnd
	for {
		at, _, fn, ok := sh.queue.PopUntil(end)
		if !ok {
			break
		}
		if at < sh.now {
			panic("shard: time went backwards")
		}
		sh.now = at
		sh.fired++
		fn(sh)
	}
	if sh.now < end {
		sh.now = end
	}
	for _, run := range sh.out {
		slices.SortFunc(run, message.compare)
	}
}

// Index returns the shard's index in the kernel.
func (sh *Shard) Index() int { return sh.idx }

// Now returns the shard's clock.
func (sh *Shard) Now() float64 { return sh.now }

// At schedules fn on this shard at absolute time t.
func (sh *Shard) At(t float64, fn sim.Event) (sim.Handle, error) {
	if t < sh.now {
		return sim.Handle{}, fmt.Errorf("%w: t=%v now=%v", sim.ErrPastEvent, t, sh.now)
	}
	return sh.queue.Schedule(t, fn), nil
}

// After schedules fn on this shard d seconds from now.
func (sh *Shard) After(d float64, fn sim.Event) (sim.Handle, error) {
	return sh.At(sh.now+d, fn)
}

// MustAfter is After for delays known to be non-negative.
func (sh *Shard) MustAfter(d float64, fn sim.Event) sim.Handle {
	h, err := sh.After(d, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Cancel prevents one of this shard's scheduled events from firing, in
// O(1). Handles from other shards are not valid here.
func (sh *Shard) Cancel(h sim.Handle) bool { return sh.queue.Cancel(h) }

// Stop halts the kernel at the barrier of the window in progress (see
// Kernel.Stop); this shard's current event and the rest of its window
// still run.
func (sh *Shard) Stop() { sh.k.Stop() }

// Send books fn on shard dst at time at. The message is buffered and
// delivered at the current window's barrier; at must lie at or beyond
// the window end (uniform-latency models satisfy this by construction: a
// message sent at t ≥ windowStart with latency ≥ lookahead arrives at
// t+latency ≥ windowEnd). key orders same-time deliveries and must be
// unique per (at, dst) — the barrier panics on a duplicate — and
// independent of the shard count: internal/cellnet packs (source cell ID,
// per-cell message sequence).
//
// Send is the only legal way for one shard's event to affect another
// shard.
func (sh *Shard) Send(dst int, at float64, key uint64, fn sim.Event) {
	if dst < 0 || dst >= len(sh.k.shards) {
		panic(fmt.Sprintf("shard: Send to shard %d of %d", dst, len(sh.k.shards)))
	}
	if math.IsNaN(at) {
		panic("shard: NaN message time")
	}
	// The conservative guarantee: the destination may already have
	// executed up to the current window's end, so the message must not
	// land before it. sh.now ≤ windowEnd during a window, and the
	// window end is the next grid point after the window started; a
	// message time ≥ now + lookahead always clears it.
	windowEnd := (math.Floor(sh.k.barrier/sh.k.cfg.Lookahead) + 1) * sh.k.cfg.Lookahead
	if at < windowEnd && at < sh.k.barrier+sh.k.cfg.Lookahead {
		panic(fmt.Sprintf("shard: Send violates lookahead: at=%v windowEnd=%v", at, windowEnd))
	}
	sh.out[dst] = append(sh.out[dst], message{at: at, key: key, fn: fn})
}
