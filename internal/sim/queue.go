package sim

import "math"

// entry is a heap element: the (at, seq) ordering key plus the index of
// the slot holding the callback, so sifting moves 24-byte values and never
// follows a pointer.
type entry struct {
	at   float64
	seq  uint64
	slot uint32
}

func (a entry) before(b entry) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// slot holds a queued event's callback. It belongs to event seq until that
// event's entry leaves the heap; a free slot reads seq 0. Schedule rejects
// nil callbacks, so a nil fn under a nonzero seq marks a canceled event.
type slot struct {
	fn  Event
	seq uint64
}

// EventQueue is a binary heap of timestamped events ordered by (time, seq)
// over a slab of callback slots, with O(1) lazy cancel. It is the storage
// layer shared by the kernels in this module: Simulator owns one, and the
// sharded kernel (internal/sim/shard) owns one per shard. Sequence numbers
// start at 1 and increase by scheduling order, so FIFO tie-break at equal
// timestamps is built in. Heap, slab and free list only grow, to the
// largest number of events queued at once, so steady-state Schedule and
// PopUntil allocate nothing. An EventQueue is not safe for concurrent use.
type EventQueue struct {
	heap     []entry
	slots    []slot
	free     []uint32 // slots awaiting reuse
	canceled int      // canceled events still occupying the heap
	seq      uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len returns the number of pending, not-canceled events.
func (q *EventQueue) Len() int { return len(q.heap) - q.canceled }

// Schedule books fn at time at and returns its handle. It panics if at is
// NaN or fn is nil; callers enforce their own "not in the past" rule
// because only they know the clock.
func (q *EventQueue) Schedule(at float64, fn Event) Handle {
	if math.IsNaN(at) {
		panic("sim: NaN event time")
	}
	if fn == nil {
		panic("sim: nil event")
	}
	q.seq++
	si := uint32(len(q.slots))
	if n := len(q.free); n > 0 {
		si, q.free = q.free[n-1], q.free[:n-1]
	} else {
		q.slots = append(q.slots, slot{})
	}
	q.slots[si] = slot{fn: fn, seq: q.seq}
	q.heap = append(q.heap, entry{at: at, seq: q.seq, slot: si})
	q.up(len(q.heap) - 1)
	return Handle{seq: q.seq, slot: si}
}

// Cancel marks h's event as canceled in O(1) and drops its callback, so
// what the callback captured is collectible at once. It reports whether
// the event was still pending: fired, already-canceled, compacted, zero
// and out-of-range handles return false, and so does a handle whose slot
// has been reused, because the slot then carries its new tenant's seq.
// The entry stays in the heap until popped past or compacted.
func (q *EventQueue) Cancel(h Handle) bool {
	if !h.Valid() || int(h.slot) >= len(q.slots) {
		return false
	}
	s := &q.slots[h.slot]
	if s.seq != h.seq || s.fn == nil {
		return false
	}
	s.fn = nil
	q.canceled++
	return true
}

// PeekTime returns the timestamp and sequence number of the earliest
// pending event without removing it, discarding canceled heads as a side
// effect. ok is false when no live events remain.
func (q *EventQueue) PeekTime() (at float64, seq uint64, ok bool) {
	for len(q.heap) > 0 {
		head := q.heap[0]
		if q.slots[head.slot].fn != nil {
			return head.at, head.seq, true
		}
		q.removeHead()
		q.canceled--
	}
	return 0, 0, false
}

// PopUntil removes and returns the earliest pending event if its time is
// at most end, skipping canceled events; ok is false when none is due.
// Every run loop pops through it.
func (q *EventQueue) PopUntil(end float64) (at float64, seq uint64, fn Event, ok bool) {
	at, seq, ok = q.PeekTime()
	if !ok || at > end {
		return 0, 0, nil, false
	}
	return at, seq, q.removeHead(), true
}

// removeHead takes the root entry out of the heap, frees its slot and
// returns the callback the slot held.
func (q *EventQueue) removeHead() Event {
	si := q.heap[0].slot
	fn := q.slots[si].fn
	q.slots[si] = slot{}
	q.free = append(q.free, si)
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.heap[0] = last
		q.down(0)
	}
	return fn
}

// CanceledRetained returns the number of canceled events still occupying
// heap entries and slots. Kernels call Compact at run teardown to drive
// this to zero; tests use it as a leak probe.
//
//cellqos:allow unreached sim/shard's TestCancelAndTeardownCompaction sums it across shards (Kernel.CanceledRetained in that package's export_test.go)
func (q *EventQueue) CanceledRetained() int { return q.canceled }

// Compact drops every canceled event from the heap and frees its slot;
// pending events are unaffected. It is an O(n) rebuild, so kernels call it
// at teardown rather than per cancel.
func (q *EventQueue) Compact() {
	if q.canceled == 0 {
		return
	}
	live := q.heap[:0]
	for _, e := range q.heap {
		if q.slots[e.slot].fn == nil {
			q.slots[e.slot] = slot{}
			q.free = append(q.free, e.slot)
		} else {
			live = append(live, e)
		}
	}
	q.heap, q.canceled = live, 0
	for i := len(live)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// up sifts the entry at index i toward the root.
func (q *EventQueue) up(i int) {
	h, e := q.heap, q.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down sifts the entry at index i toward the leaves.
func (q *EventQueue) down(i int) {
	h, e := q.heap, q.heap[i]
	for c := 2*i + 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
