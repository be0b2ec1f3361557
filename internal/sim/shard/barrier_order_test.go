package shard

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"cellqos/internal/sim"
)

// The barrier's contract, checked against a sorted slice: the messages a
// shard receives fire in (time, barrier that delivered them, key) order,
// whatever shards sent them and however many shards there are. A script
// fixes every send in advance — who, when, to whom, how far ahead, under
// which key — so the same script runs at any shard count.

const (
	scriptNodes     = 8 // logical destinations, dealt onto shards round robin
	scriptLookahead = 0.5
)

// scriptMsg is one mailbox message: delivered to node, delay after the
// time it is sent, and on firing it sends reply (-1: none) onward.
type scriptMsg struct {
	node  int
	delay float64
	key   uint64
	reply int
}

// scriptEvent is a local event on node's shard that sends msgs, and then
// stops the run if stop is set.
type scriptEvent struct {
	at   float64
	node int
	msgs []int
	stop bool
}

type script struct {
	msgs   []scriptMsg
	events []scriptEvent
	// chunks are the successive RunUntil ends (two of them off the window
	// grid); after chunk i the coordinating goroutine itself sends
	// coord[i] from node i's shard.
	chunks []float64
	coord  [][]int
}

// genScript draws a script. Times and delays mostly sit on a grid of
// eighths so that equal delivery times from different sources — the ties
// the key must break — are the common case, not the exception; burst is
// the size of the occasional large send, which decides whether a barrier
// merges inline or on one goroutine per destination.
func genScript(rng *rand.Rand, burst int, stop bool) *script {
	sc := &script{chunks: []float64{2.3, 4, 7.1, 40}}
	var newMsg func(depth int) int
	newMsg = func(depth int) int {
		m := scriptMsg{node: rng.IntN(scriptNodes), delay: scriptLookahead + float64(rng.IntN(9))/8, reply: -1}
		if rng.IntN(4) == 0 {
			m.delay = scriptLookahead + 2*rng.Float64()
		}
		if depth < 2 && rng.IntN(4) == 0 {
			m.reply = newMsg(depth + 1)
		}
		sc.msgs = append(sc.msgs, m)
		return len(sc.msgs) - 1
	}
	batch := func() []int {
		n := 1 + rng.IntN(4)
		if rng.IntN(6) == 0 {
			n = burst
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = newMsg(0)
		}
		return ids
	}
	for i, n := 0, 20+rng.IntN(30); i < n; i++ {
		ev := scriptEvent{at: float64(rng.IntN(80)) / 8, node: rng.IntN(scriptNodes), msgs: batch()}
		if rng.IntN(4) == 0 {
			ev.at = 10 * rng.Float64()
		}
		sc.events = append(sc.events, ev)
	}
	if stop {
		sc.events[rng.IntN(len(sc.events))].stop = true
	}
	for range sc.chunks[1:] {
		sc.coord = append(sc.coord, batch())
	}
	// Keys are unique, as Send requires, and unrelated to who sends what.
	for i, k := range rng.Perm(len(sc.msgs)) {
		sc.msgs[i].key = uint64(k) + 1
	}
	return sc
}

// sentMsg is what the oracle knows of a message: where it goes, when it
// is due, the barrier clock when it was sent (messages of one window
// are delivered together, ahead of any later window's) and its key.
type sentMsg struct {
	id, dst   int
	at, epoch float64
	key       uint64
}

// play runs the script on a kernel of the given shard count and returns,
// per shard, the message ids in firing order and the messages sent to it.
// Only the shard executing an event appends to its slices, so the race
// detector also checks the kernel's confinement promise.
func play(sc *script, shards int) (fired [][]int, sent [][]sentMsg, stopped bool) {
	k := New(Config{Shards: shards, Lookahead: scriptLookahead})
	fired = make([][]int, shards)
	out := make([][]sentMsg, shards) // by sending shard
	var send func(sh *Shard, id int)
	send = func(sh *Shard, id int) {
		m := sc.msgs[id]
		dst, at := m.node%shards, sh.Now()+m.delay
		out[sh.Index()] = append(out[sh.Index()], sentMsg{id: id, dst: dst, at: at, epoch: k.Now(), key: m.key})
		sh.Send(dst, at, m.key, func(s sim.Scheduler) {
			to := s.(*Shard)
			fired[to.Index()] = append(fired[to.Index()], id)
			if m.reply >= 0 {
				send(to, m.reply)
			}
		})
	}
	for _, ev := range sc.events {
		k.Shard(ev.node%shards).MustAfter(ev.at, func(s sim.Scheduler) {
			for _, id := range ev.msgs {
				send(s.(*Shard), id)
			}
			if ev.stop {
				stopped = true // read once RunUntil has returned
				s.Stop()
			}
		})
	}
	for i, end := range sc.chunks {
		if k.RunUntil(end); stopped {
			break
		}
		if i < len(sc.coord) {
			for _, id := range sc.coord[i] {
				send(k.Shard(i%shards), id)
			}
		}
	}
	sent = make([][]sentMsg, shards)
	for _, from := range out {
		for _, m := range from {
			sent[m.dst] = append(sent[m.dst], m)
		}
	}
	return fired, sent, stopped
}

// checkBarrierOrder plays the script at every shard count and compares
// each destination's firing order with the oracle's. A stopped run fired
// a prefix of it: what was sent and not fired sorts after what was. Stop
// takes effect at a barrier, so every shard count fires the same
// messages as one shard.
func checkBarrierOrder(t *testing.T, sc *script) {
	var one []int // the messages the 1-shard run fired, ascending
	for _, shards := range []int{1, 2, 3, 5, 8} {
		fired, sent, stopped := play(sc, shards)
		all := slices.Concat(fired...)
		slices.Sort(all)
		if shards == 1 {
			one = all
		} else if !slices.Equal(all, one) {
			t.Fatalf("%d shards: run fired %d messages, 1 shard fired %d, or other ones (stopped: %v)", shards, len(all), len(one), stopped)
		}
		for d, got := range fired {
			slices.SortFunc(sent[d], func(a, b sentMsg) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.epoch, b.epoch), cmp.Compare(a.key, b.key))
			})
			if len(got) > len(sent[d]) || (!stopped && len(got) != len(sent[d])) {
				t.Fatalf("%d shards: shard %d fired %d of the %d messages sent to it (stopped: %v)", shards, d, len(got), len(sent[d]), stopped)
			}
			for i, id := range got {
				if want := sent[d][i]; id != want.id {
					t.Fatalf("%d shards: shard %d fired message %d in place %d, the oracle has message %d (t=%v, key %d)", shards, d, id, i, want.id, want.at, want.key)
				}
			}
		}
	}
}

func TestBarrierOrderMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		// Bursts on both sides of the inline/parallel rule; every third
		// script stops mid-window.
		burst := []int{3, parallelMergeMin / 4, 2 * parallelMergeMin}[seed%3]
		checkBarrierOrder(t, genScript(rand.New(rand.NewPCG(seed, 24)), burst, seed%3 == 0))
	}
}

func FuzzBarrierOrder(f *testing.F) {
	f.Add(uint64(1), uint16(3), false)
	f.Add(uint64(2), uint16(2*parallelMergeMin), false)
	f.Add(uint64(3), uint16(parallelMergeMin), true)
	f.Fuzz(func(t *testing.T, seed uint64, burst uint16, stop bool) {
		checkBarrierOrder(t, genScript(rand.New(rand.NewPCG(seed, 24)), 1+int(burst)%(4*parallelMergeMin), stop))
	})
}
