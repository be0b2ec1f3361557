package sim

import (
	"container/heap"
	"math"
)

type item struct {
	at       float64
	seq      uint64
	fn       Event
	canceled bool
}

type qheap []*item

func (q qheap) Len() int { return len(q) }

func (q qheap) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q qheap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *qheap) Push(x any) { *q = append(*q, x.(*item)) }

func (q *qheap) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// EventQueue is a binary heap of timestamped events ordered by
// (time, seq) with O(1) cancel via a seq index. It is the storage layer
// shared by the kernels in this module: Simulator owns one, and the
// sharded kernel (internal/sim/shard) owns one per shard. Sequence
// numbers start at 1 and increase by scheduling order, so FIFO tie-break
// at equal timestamps is built in. An EventQueue is not safe for
// concurrent use.
type EventQueue struct {
	heap     qheap
	index    map[uint64]*item // queued items (incl. canceled) by seq
	canceled int              // canceled items still occupying the heap
	seq      uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue {
	return &EventQueue{index: make(map[uint64]*item)}
}

// Len returns the number of pending, not-canceled events.
func (q *EventQueue) Len() int { return len(q.heap) - q.canceled }

// Schedule books fn at time t and returns its sequence number. It panics
// if t is NaN; callers enforce their own "not in the past" rule because
// only they know the clock.
func (q *EventQueue) Schedule(at float64, fn Event) uint64 {
	if math.IsNaN(at) {
		panic("sim: NaN event time")
	}
	q.seq++
	it := &item{at: at, seq: q.seq, fn: fn}
	heap.Push(&q.heap, it)
	q.index[q.seq] = it
	return q.seq
}

// Cancel marks the event with the given sequence number as canceled in
// O(1). It reports whether the event was still pending; already-fired,
// already-canceled, and unknown seqs return false. The item stays in the
// heap until popped past or compacted.
func (q *EventQueue) Cancel(seq uint64) bool {
	it, ok := q.index[seq]
	if !ok || it.canceled {
		return false
	}
	it.canceled = true
	q.canceled++
	return true
}

// Pop removes and returns the earliest pending event, skipping canceled
// items. ok is false when no live events remain.
func (q *EventQueue) Pop() (at float64, seq uint64, fn Event, ok bool) {
	for len(q.heap) > 0 {
		it := heap.Pop(&q.heap).(*item)
		delete(q.index, it.seq)
		if it.canceled {
			q.canceled--
			continue
		}
		return it.at, it.seq, it.fn, true
	}
	return 0, 0, nil, false
}

// PeekTime returns the timestamp and sequence number of the earliest
// pending event without removing it, discarding canceled heads as a side
// effect. ok is false when no live events remain.
func (q *EventQueue) PeekTime() (at float64, seq uint64, ok bool) {
	for len(q.heap) > 0 {
		if q.heap[0].canceled {
			it := heap.Pop(&q.heap).(*item)
			delete(q.index, it.seq)
			q.canceled--
			continue
		}
		return q.heap[0].at, q.heap[0].seq, true
	}
	return 0, 0, false
}

// CanceledRetained returns the number of canceled items still occupying
// heap and index memory. Kernels call Compact at run teardown to drive
// this to zero; tests use it as a leak probe.
func (q *EventQueue) CanceledRetained() int { return q.canceled }

// Compact drops every canceled item from the heap and index, releasing
// their memory and callback references. Pending events are unaffected.
// It is an O(n) rebuild, so kernels call it at teardown rather than per
// cancel.
func (q *EventQueue) Compact() {
	if q.canceled == 0 {
		return
	}
	live := q.heap[:0]
	for _, it := range q.heap {
		if it.canceled {
			delete(q.index, it.seq)
			continue
		}
		live = append(live, it)
	}
	// Zero the tail so dropped items' callbacks are collectible.
	for i := len(live); i < len(q.heap); i++ {
		q.heap[i] = nil
	}
	q.heap = live
	q.canceled = 0
	heap.Init(&q.heap)
}
