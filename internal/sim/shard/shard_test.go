package shard

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cellqos/internal/sim"
	"cellqos/internal/testleak"
)

func TestSingleShardMatchesSimulator(t *testing.T) {
	// Inside a shard the kernel is a plain (time, seq) heap: a 1-shard
	// kernel must reproduce the serial Simulator's firing order exactly
	// for a random workload.
	rng := rand.New(rand.NewPCG(42, 7))
	type ev struct{ at float64 }
	var evs []ev
	for i := 0; i < 500; i++ {
		evs = append(evs, ev{at: rng.Float64() * 100})
	}
	run := func(s sim.Scheduler, runner func() float64) []float64 {
		var fired []float64
		for _, e := range evs {
			s.MustAfter(e.at, func(s sim.Scheduler) { fired = append(fired, s.Now()) })
		}
		runner()
		return fired
	}
	ref := sim.New()
	want := run(ref, ref.Run)
	k := New(Config{Shards: 1, Lookahead: 1})
	got := run(k.Shard(0), k.Run)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("1-shard kernel diverged from Simulator")
	}
}

func TestNewRejectsNonPositiveLookahead(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("New accepted a zero lookahead")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "lookahead") {
			t.Fatalf("panic %q does not name the lookahead", msg)
		}
	}()
	New(Config{Shards: 2})
}

func TestRunUntilSemantics(t *testing.T) {
	k := New(Config{Shards: 2, Lookahead: 1})
	var mu sync.Mutex
	var fired []float64
	for i, at := range []float64{1, 2, 3, 4, 5} {
		k.Shard(i%2).MustAfter(at, func(s sim.Scheduler) {
			mu.Lock()
			fired = append(fired, s.Now())
			mu.Unlock()
		})
	}
	if end := k.RunUntil(3); end != 3 {
		t.Fatalf("RunUntil returned %v, want 3", end)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if k.Now() != 3 || k.Shard(0).Now() != 3 || k.Shard(1).Now() != 3 {
		t.Fatal("clocks not advanced to end")
	}
	k.Run()
	if len(fired) != 5 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestWindowedSendDeliversAtBarrier(t *testing.T) {
	defer testleak.Check(t)()
	k := New(Config{Shards: 2, Lookahead: 1})
	var mu sync.Mutex
	var got []string
	rec := func(tag string) {
		mu.Lock()
		got = append(got, tag)
		mu.Unlock()
	}
	k.Shard(0).MustAfter(0.25, func(s sim.Scheduler) {
		rec("send@0.25")
		s.(*Shard).Send(1, 1.25, 1, func(sim.Scheduler) { rec("recv@1.25") }) //cellqos:allow shardsafe literal send time chosen ≥ now+lookahead by construction (window is 1.0)
	})
	k.Shard(1).MustAfter(0.5, func(sim.Scheduler) { rec("other@0.5") })
	k.RunUntil(3)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[2] != "recv@1.25" {
		t.Fatalf("message not delivered in second window: %v", got)
	}
}

func TestWindowedLookaheadViolationPanics(t *testing.T) {
	k := New(Config{Shards: 2, Lookahead: 1})
	k.Shard(0).MustAfter(0.5, func(s sim.Scheduler) {
		defer func() {
			if recover() == nil {
				t.Error("Send below the lookahead window did not panic")
			}
		}()
		// Window is [0,1]; a message for t=0.75 would arrive in the
		// receiver's past.
		s.(*Shard).Send(1, 0.75, 1, func(sim.Scheduler) {}) //cellqos:allow shardsafe deliberate lookahead violation: this test asserts the Send panics
	})
	k.RunUntil(2)
}

func TestWindowedSameTimeMessagesOrderedByKey(t *testing.T) {
	// Two shards send same-time messages to shard 0; delivery (and
	// hence firing) order must follow the caller-supplied keys, not the
	// shard indices or goroutine timing.
	for trial := 0; trial < 20; trial++ {
		k := New(Config{Shards: 3, Lookahead: 1})
		var mu sync.Mutex
		var got []uint64
		for src := 1; src <= 2; src++ {
			src := src
			key := uint64(3 - src) // shard 1 sends key 2, shard 2 sends key 1
			k.Shard(src).MustAfter(0.5, func(s sim.Scheduler) {
				s.(*Shard).Send(0, 2.0, key, func(sim.Scheduler) { //cellqos:allow shardsafe literal send time chosen ≥ now+lookahead by construction (window is 1.0)
					mu.Lock()
					got = append(got, key)
					mu.Unlock()
				})
			})
		}
		k.RunUntil(3)
		mu.Lock()
		ok := reflect.DeepEqual(got, []uint64{1, 2})
		mu.Unlock()
		if !ok {
			t.Fatalf("trial %d: same-time messages fired as %v, want key order [1 2]", trial, got)
		}
	}
}

func TestWindowedChunkedRunMatchesSingleRun(t *testing.T) {
	defer testleak.Check(t)()
	// The window grid is anchored at 0, so chunked RunUntil calls and a
	// single call produce the same barriers and the same firing order.
	build := func() (*Kernel, *[]float64, *sync.Mutex) {
		k := New(Config{Shards: 2, Lookahead: 0.5})
		var mu sync.Mutex
		fired := &[]float64{}
		rng := rand.New(rand.NewPCG(9, 9))
		for i := 0; i < 200; i++ {
			at := rng.Float64() * 20
			sh := i % 2
			k.Shard(sh).MustAfter(at, func(s sim.Scheduler) {
				mu.Lock()
				*fired = append(*fired, s.Now())
				mu.Unlock()
			})
		}
		return k, fired, &mu
	}
	k1, f1, _ := build()
	k1.RunUntil(20)
	k2, f2, _ := build()
	for end := 1.3; end < 20; end += 1.3 {
		k2.RunUntil(end)
	}
	k2.RunUntil(20)
	sort.Float64s(*f1)
	sort.Float64s(*f2)
	if !reflect.DeepEqual(*f1, *f2) {
		t.Fatal("chunked RunUntil diverged from single RunUntil")
	}
}

func TestAtBarrierQuiescentAndOrdered(t *testing.T) {
	defer testleak.Check(t)()
	k := New(Config{Shards: 2, Lookahead: 1})
	var barriers []float64
	k.AtBarrier(func(now float64) {
		barriers = append(barriers, now)
		// Quiescent: coordinator may inspect all shards here.
		_ = k.Pending()
		_ = k.Fired()
	})
	k.Shard(0).MustAfter(2.5, func(sim.Scheduler) {})
	k.RunUntil(3)
	want := []float64{1, 2, 3}
	if !reflect.DeepEqual(barriers, want) {
		t.Fatalf("barriers %v, want %v", barriers, want)
	}
}

func TestCancelAndTeardownCompaction(t *testing.T) {
	k := New(Config{Shards: 2, Lookahead: 1})
	fired := false
	h := k.Shard(1).MustAfter(50, func(sim.Scheduler) { fired = true })
	if !k.Shard(1).Cancel(h) {
		t.Fatal("Cancel returned false")
	}
	k.Shard(0).MustAfter(1, func(sim.Scheduler) {})
	k.RunUntil(2)
	if fired {
		t.Fatal("canceled event fired")
	}
	if got := k.CanceledRetained(); got != 0 {
		t.Fatalf("CanceledRetained() = %d after teardown, want 0", got)
	}
}

func TestStopWindowedAtBarrier(t *testing.T) {
	k := New(Config{Shards: 2, Lookahead: 1})
	var mu sync.Mutex
	count := 0
	for i := 0; i < 10; i++ {
		k.Shard(i%2).MustAfter(float64(i)+0.5, func(s sim.Scheduler) {
			mu.Lock()
			count++
			mu.Unlock()
			if i == 2 {
				s.Stop()
			}
		})
	}
	k.RunUntil(100)
	mu.Lock()
	defer mu.Unlock()
	if count >= 10 {
		t.Fatal("Stop did not halt the windowed run")
	}
}

// TestStopResumes: Stop takes effect at the barrier of the window in
// progress, so a stopped RunUntil returns at that barrier with nothing
// in any queue older than it, and calling RunUntil again fires the rest:
// the two calls together fire what one unstopped call fires, in the same
// order on every shard.
func TestStopResumes(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		run := func(stop bool) [][]string {
			k := New(Config{Shards: shards, Lookahead: 1})
			fired := make([][]string, shards)
			rec := func(s sim.Scheduler, tag string) {
				sh := s.(*Shard)
				fired[sh.Index()] = append(fired[sh.Index()], fmt.Sprintf("%s@%v", tag, sh.Now()))
			}
			var hop func(n int) sim.Event
			hop = func(n int) sim.Event {
				return func(s sim.Scheduler) {
					rec(s, fmt.Sprint("hop", n))
					if sh := s.(*Shard); n < 6 {
						sh.Send((sh.Index()+1)%shards, sh.Now()+k.Lookahead(), uint64(n), hop(n+1))
					}
				}
			}
			k.Shard(0).MustAfter(0.2, hop(0))
			k.Shard(0).MustAfter(0.5, func(s sim.Scheduler) {
				rec(s, "stop")
				if stop {
					s.Stop()
				}
			})
			for i := 0; i < 8; i++ {
				k.Shard(i%shards).MustAfter(0.7+0.3*float64(i), func(s sim.Scheduler) { rec(s, "local") })
			}
			if end := k.RunUntil(10); stop {
				if end != 1 || k.Shard(shards-1).Now() != 1 {
					t.Fatalf("%d shards: stopped RunUntil returned %v with the last shard at %v, want both at the barrier 1", shards, end, k.Shard(shards-1).Now())
				}
				k.RunUntil(10)
			}
			return fired
		}
		want, got := run(false), run(true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d shards: stopped and resumed run fired\n%v\nunstopped run fired\n%v", shards, got, want)
		}
	}
}

func TestNilEventPanicsAtBooking(t *testing.T) {
	defer func() {
		if r := recover(); r != "sim: nil event" {
			t.Fatalf("Shard.At(1, nil) panic = %v, want sim: nil event", r)
		}
	}()
	New(Config{Shards: 1, Lookahead: 1}).Shard(0).At(1, nil)
}

// Steady state on a warmed kernel allocates nothing: a fired event that
// books its successor reuses a queue slot, a mailbox message reuses its
// per-destination outbox, and neither the window's goroutines nor the
// barrier's — inline below parallelMergeMin messages, one per destination
// above — are built per window. So a Send plus its barrier is 0
// allocations per message at any shard count and burst size.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	for _, tc := range []struct{ shards, chains int }{
		{1, 64}, {2, 64}, {2, 2 * parallelMergeMin}, {3, parallelMergeMin},
	} {
		k := New(Config{Shards: tc.shards, Lookahead: 1})
		keys := make([]uint64, tc.shards)
		var local, mailed sim.Event
		local = func(s sim.Scheduler) { s.MustAfter(0.7, local) }
		mailed = func(s sim.Scheduler) {
			sh := s.(*Shard)
			keys[sh.Index()]++
			sh.Send((sh.Index()+1)%tc.shards, sh.Now()+k.Lookahead(), uint64(sh.Index())<<40|keys[sh.Index()], mailed)
		}
		for i := 0; i < tc.chains; i++ {
			sh := k.Shard(i % tc.shards)
			sh.MustAfter(float64(i)/float64(tc.chains), local)
			sh.MustAfter(float64(i)/float64(tc.chains), mailed)
		}
		k.RunUntil(20)
		if avg := testing.AllocsPerRun(20, func() { k.RunUntil(k.Now() + 5) }); avg != 0 {
			t.Errorf("%d shards, %d messages per barrier: %v allocations per 5 windows on a warmed kernel, want 0", tc.shards, tc.chains, avg)
		}
	}
}

// Keys are unique per (time, destination) by Send's contract; a duplicate
// would leave the order to the source shard's index — the one thing the
// kernel promises never to depend on — so the barrier refuses it, whether
// the two messages come from one shard or from two.
func TestDuplicateMessageKeyPanics(t *testing.T) {
	for _, srcs := range [][2]int{{0, 0}, {0, 1}, {1, 0}} {
		func() {
			k := New(Config{Shards: 2, Lookahead: 1})
			for _, src := range srcs {
				k.Shard(src).Send(1, k.Shard(src).Now()+k.Lookahead(), 7, func(sim.Scheduler) {})
			}
			k.Shard(0).Send(1, k.Shard(0).Now()+2*k.Lookahead(), 7, func(sim.Scheduler) {}) // same key, another time: fine
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "shard: duplicate message key") {
					t.Errorf("sources %v: barrier panic = %q, want shard: duplicate message key", srcs, msg)
				}
			}()
			k.RunUntil(1)
		}()
	}
}

// BenchmarkBarrier measures one mailbox message end to end — Send, the
// sort that closes the window, the merge at the barrier, the firing that
// sends the next — on two shards, at a burst the barrier merges inline
// (64) and at the size of a metro exchange round's replies (60,000,
// merged by both destinations at once). An op is one message.
func BenchmarkBarrier(b *testing.B) {
	for _, msgs := range []int{64, 60000} {
		b.Run(fmt.Sprintf("msgs=%d", msgs), func(b *testing.B) {
			k := New(Config{Shards: 2, Lookahead: 1})
			var keys [2]uint64
			var hop sim.Event
			hop = func(s sim.Scheduler) {
				sh := s.(*Shard)
				keys[sh.Index()]++
				sh.Send(1-sh.Index(), sh.Now()+k.Lookahead(), uint64(sh.Index())<<40|keys[sh.Index()], hop)
			}
			for i := 0; i < msgs; i++ {
				k.Shard(i%2).MustAfter(float64(i)/float64(msgs), hop)
			}
			k.RunUntil(4) // queues and outboxes at their steady size
			b.ReportAllocs()
			b.ResetTimer()
			k.RunUntil(k.Now() + float64((b.N+msgs-1)/msgs))
		})
	}
}
