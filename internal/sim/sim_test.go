package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSimulatorStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		if _, err := s.At(at, func(s Scheduler) { got = append(got, s.Now()) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestTiesFireInSchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustAfter(7, func(Scheduler) { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated FIFO: got %v", got)
		}
	}
}

func TestPastEventRejected(t *testing.T) {
	s := New()
	s.MustAfter(10, func(Scheduler) {})
	s.Run()
	if _, err := s.At(5, func(Scheduler) {}); err == nil {
		t.Fatal("scheduling in the past succeeded, want error")
	}
}

func TestSameTimeEventAllowed(t *testing.T) {
	s := New()
	fired := false
	s.MustAfter(10, func(s Scheduler) {
		if _, err := s.At(s.Now(), func(Scheduler) { fired = true }); err != nil {
			t.Errorf("At(Now) failed: %v", err)
		}
	})
	s.Run()
	if !fired {
		t.Fatal("event at current time did not fire")
	}
}

func TestNegativeAfterRejected(t *testing.T) {
	s := New()
	s.MustAfter(1, func(Scheduler) {})
	s.Run()
	if _, err := s.After(-0.5, func(Scheduler) {}); err == nil {
		t.Fatal("After(-0.5) succeeded, want error")
	}
}

func TestNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(NaN) did not panic")
		}
	}()
	New().At(nan(), func(Scheduler) {})
}

// TestRunUntilNaNPanics: a NaN end would otherwise fire every event,
// since no event time compares above it.
func TestRunUntilNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil(NaN) did not panic")
		}
	}()
	s := New()
	s.MustAfter(1, func(Scheduler) {})
	s.RunUntil(nan())
}

func nan() float64 { z := 0.0; return z / z }

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.MustAfter(1, func(Scheduler) { fired = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Fatal("double Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelInvalidHandle(t *testing.T) {
	s := New()
	if s.Cancel(Handle{}) {
		t.Fatal("Cancel of zero handle returned true")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	s := New()
	h := s.MustAfter(1, func(Scheduler) {})
	s.Run()
	if s.Cancel(h) {
		t.Fatal("Cancel of already-fired event returned true")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New()
	fired := false
	var h Handle
	h = s.MustAfter(2, func(Scheduler) { fired = true })
	s.MustAfter(1, func(s Scheduler) { s.Cancel(h) })
	s.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", s.Pending())
	}
}

func TestStop(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 10; i++ {
		s.MustAfter(float64(i), func(s Scheduler) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop at 3", count)
	}
	if s.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", s.Pending())
	}
}

func TestRunResumesAfterStop(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 4; i++ {
		s.MustAfter(float64(i), func(s Scheduler) {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	s.Run()
	s.Run()
	if count != 4 {
		t.Fatalf("fired %d events across two Runs, want 4", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		s.MustAfter(at, func(s Scheduler) { got = append(got, s.Now()) })
	}
	end := s.RunUntil(3)
	if end != 3 {
		t.Fatalf("RunUntil returned %v, want 3", end)
	}
	if len(got) != 3 {
		t.Fatalf("fired %d events, want 3 (≤ end)", len(got))
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
	s.Run()
	if len(got) != 5 {
		t.Fatalf("remaining events lost: fired %d total, want 5", len(got))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v, want 42 with empty queue", s.Now())
	}
}

func TestRunUntilBeforeNowIsNoop(t *testing.T) {
	s := New()
	s.RunUntil(10)
	if got := s.RunUntil(5); got != 10 {
		t.Fatalf("RunUntil(5) after Now=10 returned %v, want 10", got)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	s := New()
	depth := 0
	var recurse func(Scheduler)
	recurse = func(s Scheduler) {
		depth++
		if depth < 100 {
			s.MustAfter(1, recurse)
		}
	}
	s.MustAfter(1, recurse)
	s.Run()
	if depth != 100 {
		t.Fatalf("chain depth = %d, want 100", depth)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.MustAfter(float64(i), func(Scheduler) {})
	}
	h := s.MustAfter(10, func(Scheduler) {})
	s.Cancel(h)
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (canceled events don't count)", s.Fired())
	}
}

func TestNextEventTime(t *testing.T) {
	s := New()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("NextEventTime ok on empty queue")
	}
	h := s.MustAfter(3, func(Scheduler) {})
	s.MustAfter(5, func(Scheduler) {})
	if at, ok := s.NextEventTime(); !ok || at != 3 {
		t.Fatalf("NextEventTime = %v,%v want 3,true", at, ok)
	}
	s.Cancel(h)
	if at, ok := s.NextEventTime(); !ok || at != 5 {
		t.Fatalf("NextEventTime after cancel = %v,%v want 5,true", at, ok)
	}
}

// Property: for any multiset of delays, events fire in sorted order and
// the final clock equals the maximum delay.
func TestPropertyFiringOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		s := New()
		var fireTimes []float64
		for _, r := range raw {
			at := float64(r) / 16
			s.MustAfter(at, func(s Scheduler) { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		want := make([]float64, len(raw))
		for i, r := range raw {
			want[i] = float64(r) / 16
		}
		sort.Float64s(want)
		for i := range want {
			if fireTimes[i] != want[i] {
				return false
			}
		}
		return s.Now() == want[len(want)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset leaves exactly the complement firing.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool, seed uint64) bool {
		s := New()
		rng := rand.New(rand.NewPCG(seed, 0))
		fired := make(map[int]bool)
		handles := make([]Handle, len(delays))
		for i, d := range delays {
			i := i
			handles[i] = s.MustAfter(float64(d), func(Scheduler) { fired[i] = true })
		}
		want := make(map[int]bool)
		for i := range delays {
			want[i] = true
		}
		for i := range handles {
			drop := rng.IntN(2) == 0
			if i < len(mask) {
				drop = mask[i]
			}
			if drop {
				s.Cancel(handles[i])
				delete(want, i)
			}
		}
		s.Run()
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if !fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, d := range delays {
			s.MustAfter(d, func(Scheduler) {})
		}
		s.Run()
	}
}

// Regression: canceled events whose timestamps were never reached used to
// be retained forever (the old canceled-map only shrank on pop). Run and
// RunUntil now compact them away at teardown.
func TestCanceledEventsReleasedAtRunUntilTeardown(t *testing.T) {
	s := New()
	for i := 0; i < 1000; i++ {
		h := s.MustAfter(100+float64(i), func(Scheduler) { t.Error("canceled event fired") })
		s.Cancel(h)
	}
	s.MustAfter(1, func(Scheduler) {})
	s.RunUntil(50) // ends long before any canceled timestamp
	if got := s.CanceledRetained(); got != 0 {
		t.Fatalf("CanceledRetained() = %d after RunUntil teardown, want 0", got)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d, want 0", got)
	}
}

func TestCanceledEventsReleasedAfterStop(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		h := s.MustAfter(10+float64(i), func(Scheduler) { t.Error("canceled event fired") })
		s.Cancel(h)
	}
	s.MustAfter(1, func(s Scheduler) { s.Stop() })
	s.Run()
	if got := s.CanceledRetained(); got != 0 {
		t.Fatalf("CanceledRetained() = %d after stopped Run, want 0", got)
	}
}

func TestCancelAfterCompactionReturnsFalse(t *testing.T) {
	s := New()
	h := s.MustAfter(100, func(Scheduler) {})
	s.Cancel(h)
	s.RunUntil(1) // compacts the canceled item away
	if s.Cancel(h) {
		t.Fatal("Cancel of compacted event returned true")
	}
}

func TestEventQueueCompactKeepsOrder(t *testing.T) {
	q := NewEventQueue()
	var keep []Handle
	for i := 0; i < 50; i++ {
		seq := q.Schedule(float64((i*37)%50), func(Scheduler) {})
		if i%3 == 0 {
			q.Cancel(seq)
		} else {
			keep = append(keep, seq)
		}
	}
	q.Compact()
	if q.CanceledRetained() != 0 {
		t.Fatalf("CanceledRetained() = %d after Compact, want 0", q.CanceledRetained())
	}
	if q.Len() != len(keep) {
		t.Fatalf("Len() = %d, want %d", q.Len(), len(keep))
	}
	last := -1.0
	n := 0
	for {
		at, _, _, ok := q.Pop()
		if !ok {
			break
		}
		if at < last {
			t.Fatalf("Compact broke heap order: %v after %v", at, last)
		}
		last = at
		n++
	}
	if n != len(keep) {
		t.Fatalf("popped %d events after Compact, want %d", n, len(keep))
	}
}

// Cancel must be O(1): a linear scan (the old implementation) makes this
// benchmark quadratic in queue size and shows up immediately in ns/op.
// Events are booked and canceled a batch at a time, so memory stays
// bounded however large b.N grows (10⁸ at ~10 ns/op).
func BenchmarkCancel(b *testing.B) {
	const batch = 1 << 16
	s := New()
	handles := make([]Handle, batch)
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		for i := range handles[:n] {
			handles[i] = s.MustAfter(float64(i%1024)+1, func(Scheduler) {})
		}
		b.StartTimer()
		for _, h := range handles[:n] {
			if !s.Cancel(h) {
				b.Fatal("cancel failed")
			}
		}
		b.StopTimer()
		s.queue.Compact()
	}
}
