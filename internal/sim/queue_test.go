package sim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// oracle is the reference EventQueue: a slice kept sorted by (at, seq).
type oracle struct {
	evs      []oracleEv
	canceled int // canceled events still in evs
}

type oracleEv struct {
	at       float64
	seq      uint64
	canceled bool
}

func (o *oracle) schedule(at float64, seq uint64) {
	i := sort.Search(len(o.evs), func(i int) bool { return o.evs[i].at > at }) // equal times: FIFO
	o.evs = slices.Insert(o.evs, i, oracleEv{at: at, seq: seq})
}

func (o *oracle) cancel(seq uint64) bool {
	i := slices.IndexFunc(o.evs, func(e oracleEv) bool { return e.seq == seq && !e.canceled })
	if i >= 0 {
		o.evs[i].canceled = true
		o.canceled++
	}
	return i >= 0
}

// peek drops canceled heads, as the queue does, and returns the live head.
func (o *oracle) peek() (oracleEv, bool) {
	for ; len(o.evs) > 0 && o.evs[0].canceled; o.canceled-- {
		o.evs = o.evs[1:]
	}
	if len(o.evs) == 0 {
		return oracleEv{}, false
	}
	return o.evs[0], true
}

func (o *oracle) compact() {
	o.evs, o.canceled = slices.DeleteFunc(o.evs, func(e oracleEv) bool { return e.canceled }), 0
}

// runQueueModel drives an EventQueue and the oracle through the operation
// sequence encoded in ops (three bytes each: opcode and two operands) and
// fails on the first observable difference. It returns how many Cancel
// calls hit a handle whose slot had been reused by a later event.
func runQueueModel(t *testing.T, ops []byte) (stale int) {
	t.Helper()
	q, o := NewEventQueue(), &oracle{}
	var handles []Handle
	var issued, firedSeq uint64
	checkPop := func(step int, end float64) {
		want, wantOK := o.peek()
		if wantOK && want.at > end {
			wantOK = false
		}
		at, seq, fn, ok := q.PopUntil(end)
		if ok != wantOK {
			t.Fatalf("step %d: PopUntil(%v) ok = %v, oracle %v", step, end, ok, wantOK)
		}
		if !ok {
			return
		}
		o.evs = o.evs[1:]
		fn(nil)
		if at != want.at || seq != want.seq || firedSeq != want.seq {
			t.Fatalf("step %d: popped (%v, %d) running callback %d, oracle (%v, %d)", step, at, seq, firedSeq, want.at, want.seq)
		}
	}
	for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
		a, b := ops[1], ops[2]
		switch op := ops[0] % 16; {
		case op < 6: // coarse times, so ties are common
			issued++
			seq := issued
			h := q.Schedule(float64(a%32), func(Scheduler) { firedSeq = seq })
			o.schedule(float64(a%32), seq)
			if h.seq != seq {
				t.Fatalf("step %d: Schedule issued seq %d, want %d", step, h.seq, seq)
			}
			handles = append(handles, h)
		case op < 9:
			if len(handles) == 0 {
				continue
			}
			// Any handle ever issued: pending, fired, canceled, compacted,
			// or naming a slot that a later event now occupies.
			h := handles[(int(a)<<8|int(b))%len(handles)]
			if s := q.slots[h.slot].seq; s != 0 && s != h.seq {
				stale++
			}
			if got, want := q.Cancel(h), o.cancel(h.seq); got != want {
				t.Fatalf("step %d: Cancel(%+v) = %v, oracle %v", step, h, got, want)
			}
			if q.slots[h.slot].seq == h.seq && q.slots[h.slot].fn != nil {
				t.Fatalf("step %d: canceled slot still holds its callback", step)
			}
		case op == 9: // handles that were never issued
			for _, h := range []Handle{{}, {seq: uint64(a) + 1, slot: uint32(len(q.slots)) + uint32(b)}, {seq: issued + 1 + uint64(a), slot: uint32(b)}} {
				if q.Cancel(h) {
					t.Fatalf("step %d: Cancel(%+v) of a forged handle returned true", step, h)
				}
			}
		case op < 12:
			checkPop(step, float64(a%40)-4)
		case op < 14:
			want, wantOK := o.peek()
			if at, seq, ok := q.PeekTime(); ok != wantOK || at != want.at || seq != want.seq {
				t.Fatalf("step %d: PeekTime = (%v, %d, %v), oracle (%v, %d, %v)", step, at, seq, ok, want.at, want.seq, wantOK)
			}
		case op == 14:
			_, _, fn, ok := q.Pop()
			if _, wantOK := o.peek(); ok != wantOK {
				t.Fatalf("step %d: Pop ok = %v, oracle %v", step, ok, wantOK)
			}
			if ok {
				fn(nil)
				if firedSeq != o.evs[0].seq {
					t.Fatalf("step %d: Pop ran callback %d, oracle %d", step, firedSeq, o.evs[0].seq)
				}
				o.evs = o.evs[1:]
			}
		default:
			q.Compact()
			o.compact()
		}
		if q.Len() != len(o.evs)-o.canceled || q.CanceledRetained() != o.canceled {
			t.Fatalf("step %d: Len %d CanceledRetained %d, oracle %d %d", step, q.Len(), q.CanceledRetained(), len(o.evs)-o.canceled, o.canceled)
		}
		if len(q.slots) != len(q.heap)+len(q.free) {
			t.Fatalf("step %d: %d slots for %d entries + %d free", step, len(q.slots), len(q.heap), len(q.free))
		}
	}
	for step := 0; q.Len() > 0 || len(o.evs) > o.canceled; step++ {
		checkPop(-step, 1e9)
	}
	return stale
}

func TestEventQueueMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			ops := make([]byte, 3*6000)
			for i := range ops {
				ops[i] = byte(rng.UintN(256))
			}
			if stale := runQueueModel(t, ops); stale == 0 {
				t.Fatal("no Cancel through a stale handle after slot reuse was exercised")
			}
		})
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 5, 0, 6, 0, 0, 10, 9, 0, 6, 0, 1, 15, 0, 0, 14, 0, 0})
	f.Add([]byte{1, 3, 0, 10, 30, 0, 2, 3, 0, 7, 0, 0, 9, 1, 1, 12, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) { runQueueModel(t, ops) })
}

// A canceled event used to keep its callback — and everything it captured
// — reachable until its timestamp was popped or the run returned.
func TestCancelReleasesCallbackAtOnce(t *testing.T) {
	s := New()
	h := s.MustAfter(1e9, func(Scheduler) { t.Error("canceled event fired") })
	s.MustAfter(1, func(Scheduler) {})
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if sl := s.queue.slots[h.slot]; sl.fn != nil || sl.seq != h.seq {
		t.Fatalf("slot after Cancel = {fn set: %v, seq %d}, want event %d's slot with fn dropped", sl.fn != nil, sl.seq, h.seq)
	}
	s.Run()
}

func TestNilEventPanicsAtBooking(t *testing.T) {
	defer func() {
		if r := recover(); r != "sim: nil event" {
			t.Fatalf("At(1, nil) panic = %v, want sim: nil event", r)
		}
	}()
	New().At(1, nil)
}

// churn keeps depth self-rescheduling events pending on s and returns a
// countdown: the run stops when that many more events have fired.
func churn(s Scheduler, depth int) (left *int) {
	rng := rand.New(rand.NewPCG(7, uint64(depth)))
	left = new(int)
	var tick Event
	tick = func(sc Scheduler) {
		if *left--; *left == 0 {
			sc.Stop()
		}
		sc.MustAfter(0.5+rng.Float64(), tick)
	}
	for i := 0; i < depth; i++ {
		s.MustAfter(rng.Float64(), tick)
	}
	return left
}

func TestSteadyStateScheduleAndFireAllocatesNothing(t *testing.T) {
	s := New()
	churn(s, 256)
	s.RunUntil(50) // warm: heap, slab and free list reach their peak
	if avg := testing.AllocsPerRun(20, func() { s.RunUntil(s.Now() + 10) }); avg != 0 {
		t.Fatalf("%v allocations per 10 s of churn on a warmed Simulator, want 0", avg)
	}
}

// BenchmarkChurn is the kernel's steady state: every fired event books
// its successor, so the pending depth q stays fixed.
func BenchmarkChurn(b *testing.B) {
	for _, depth := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("q=%dk", depth/1000), func(b *testing.B) {
			s := New()
			left := churn(s, depth)
			s.RunUntil(2)
			*left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			s.Run()
		})
	}
}
