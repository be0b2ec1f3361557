package cellnet

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
	"cellqos/internal/wired"
)

// A connection is 184 B of fields, at most the 208-B size class it was
// allocated in before records came from slot chunks (connSlot). A
// prototype that embedded the private stream's generator in the record
// crossed into the 224-B class and cost the instant-signaling rings
// +5.7 % bytes per event for state only delayed signaling uses; the
// stream and the mobility path now sit beside the record in its slot,
// and flags go into the padding after crossing.
func TestConnectionStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(connection{}); got > 208 {
		t.Fatalf("connection is %d bytes, want ≤ 208 (the size class every workload allocates it in)", got)
	}
}

// A chunk of slots fills Go's 32-KiB size class with less than one slot
// to spare. One more field in a slot must shrink the chunk, not push it
// past 32 KiB: a larger chunk is a large object, rounded up to whole
// 8-KiB pages (128 slots of 264 B take 40,960 B, and read metro-async
// +0.8 % bytes per operation against −3.4 % at 124).
func TestConnChunkFillsItsSizeClass(t *testing.T) {
	const class = 32 << 10
	slot := unsafe.Sizeof(connSlot{})
	if size := connChunk * slot; size > class || class-size >= slot {
		t.Fatalf("a chunk of %d %d-B slots takes %d B: want at most %d B, with less than one slot unused", connChunk, slot, size, class)
	}
}

// hexScenario is scenario() on a wrapped hex metro under delayed
// signaling, with HexWalk mobility and the metro benchmark's exchange
// period.
func hexScenario(policy string, rows, cols, shards int, latency, load float64) Config {
	top := topology.Hex(rows, cols, true)
	cfg := scenario(policy, load, 0.8, mobility.HighMobility, 5)
	cfg.Topology = top
	cfg.Mobility = &mobility.HexWalk{Top: top, DiameterKm: 1, Speed: mobility.HighMobility, Persistence: 0.8}
	if load == 0 {
		cfg.Schedule = traffic.Constant{} // no arrivals, ever
	}
	cfg.Sharding = ShardingConfig{Shards: shards, SignalingLatency: latency, ExchangePeriod: 5}
	return cfg
}

// quietHexScenario is hexScenario without the audit, which is not what
// the allocation ratchets below set out to measure.
func quietHexScenario(policy string, rows, cols, shards int, latency, load float64) Config {
	cfg := hexScenario(policy, rows, cols, shards, latency, load)
	cfg.Audit = nil
	return cfg
}

// Exchange messages are recycled: the first round makes one peerReply per
// (cell, neighbor) and one peerQuery per (cell, neighboring table) — the
// most that are ever in flight at once — and every later round draws them
// from the free lists, allocating nothing. With the round over, each
// object is back on the list of the table it was delivered to.
func TestExchangeRoundsAllocateNothing(t *testing.T) {
	n := MustNew(quietHexScenario("AC3", 6, 6, 3, 0.5, 0))
	var queries, replies int
	for _, c := range n.cells {
		tabs := map[*shardState]bool{}
		for _, nb := range n.cfg.Topology.Neighbors(c.id) {
			tabs[n.cells[nb].tab] = true
			replies++
		}
		queries += len(tabs)
	}
	free := func() (q, r int) {
		for _, st := range n.tables {
			q += len(st.freeQueries)
			r += len(st.freeReplies)
		}
		return q, r
	}
	end := 7.0 // the round of t=5 is answered by t=6
	n.RunUntil(end)
	if q, r := free(); q != queries || r != replies {
		t.Fatalf("after one round %d queries and %d replies are free, want the round's %d and %d", q, r, queries, replies)
	}
	if avg := testing.AllocsPerRun(5, func() { end += 5; n.RunUntil(end) }); avg != 0 {
		t.Errorf("%v allocations per exchange round after the first, want 0", avg)
	}
	if q, r := free(); q != queries || r != replies {
		t.Errorf("after seven rounds %d queries and %d replies are free, want still %d and %d", q, r, queries, replies)
	}
	var exchanged uint64
	for _, c := range n.cells {
		exchanged += c.exchanges
	}
	if want := uint64(7 * replies); exchanged != want {
		t.Errorf("%d exchanges counted over seven rounds, want %d", exchanged, want)
	}
}

// A hand-off under delayed signaling rides on the connection's own event:
// one immortal mobile wandering a quiet metro under a locally-deciding
// policy (no Eq. 5, no estimator growth) crosses cells and shards without
// allocating. The measured span stays inside one hour of simulated time,
// where the hourly statistics do not grow either.
func TestHandOffTransferAllocatesNothing(t *testing.T) {
	cfg := quietHexScenario("static", 6, 6, 3, 0.5, 0)
	cfg.MeanLifetime = math.Inf(1)
	n := MustNew(cfg)
	n.establish(n.cells[0], 1, 1, core.ClassRealTime, wired.Path{}, nil, 0)
	handOffs := func() (total uint64, tables int) {
		for _, st := range n.tables {
			total += st.sentHO
			if st.sentHO > 0 {
				tables++
			}
		}
		return total, tables
	}
	end := 50500.0 // every cell visited; 14 h 01 m 40 s
	n.RunUntil(end)
	before, _ := handOffs()
	if avg := testing.AllocsPerRun(5, func() { end += 500; n.RunUntil(end) }); avg != 0 {
		t.Errorf("%v allocations per 500 s of hand-offs, want 0", avg)
	}
	after, tables := handOffs()
	if after-before < 50 || tables != len(n.tables) {
		t.Fatalf("%d hand-offs measured, sent from %d of %d tables: the run does not exercise the transfer", after-before, tables, len(n.tables))
	}
	if n.ActiveConnections() != 1 {
		t.Fatalf("%d live connections, want the one mobile", n.ActiveConnections())
	}
}

// The metro benchmark's shape at a hundredth of its size: AC3 on a wrapped
// hex grid, two shards, latency 0.25 s, exchange every 5 s, 30 s cold
// start. This grid read 2.19 allocations per event while every connection
// allocated its record, event closure and private stream, 1.65 with
// recycled connection slots, and 1.29 with the mobility path in the slot
// too (metro-async: 2.199, 1.649 and 1.288). It reads 1.403 under the
// race detector, so the bound of 1.45 sits 3 % above that reading.
func TestMetroShapedAllocationsPerEvent(t *testing.T) {
	n := MustNew(quietHexScenario("AC3", 30, 30, 2, 0.25, 150))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.RunUntil(30)
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(n.EventsFired())
	t.Logf("%.3f allocations per fired event", got)
	if got > 1.45 {
		t.Fatalf("%d allocations over %d events, want ≤ 1.45 per event", after.Mallocs-before.Mallocs, n.EventsFired())
	}
}

// A recycled message carries nothing from its previous use: scribbling
// over every free peerQuery and peerReply whenever the run is quiescent
// changes no result. (What a reuse does not overwrite — li and nb beyond
// cnt — it never reads.)
func TestRecycledMessagesCarryNoState(t *testing.T) {
	run := func(poison bool) *Result {
		n := MustNew(shardedScenario("AC3", 3, 0.5, 7))
		for end := 8.0; end <= 1500; end += 93 {
			n.RunUntil(end)
			if !poison {
				continue
			}
			for _, st := range n.tables {
				for _, q := range st.freeQueries {
					q.dst, q.src, q.test, q.cnt = nil, -7, math.NaN(), len(q.li)+1
					for i := range q.li {
						q.li[i], q.nb[i] = -7, -7
					}
				}
				for _, r := range st.freeReplies {
					r.asker, r.li = -7, -7
					r.entry = mirrorEntry{ok: true, outgoing: math.NaN(), used: -7, cap: -7, lastBr: math.NaN(), maxSojourn: math.NaN()}
				}
			}
		}
		return stripTraces(n.Snapshot())
	}
	ref, got := run(false), run(true)
	if ref.Total.HandOffs == 0 || ref.Exchanges == 0 {
		t.Fatalf("reference run exchanged nothing: %+v", ref.Total)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("poisoning the free lists changed the run:\n got %+v\nwant %+v", got, ref)
	}
}

// A call's record, event closure, private stream and mobility path all
// come from a recycled slot, so once the slot pool has grown to the live
// population a call allocates nothing. assertCallsAllocateNothing
// advances n, which has reached time end, 100 simulated seconds at a
// time until a step carves no slot, then measures the calls born over
// span more seconds. The scenarios use a static reservation: no Eq. 5,
// no estimator growth. With a heap-allocated path the paper ring read
// 1.0 allocations per call, and before slots about three.
func assertCallsAllocateNothing(t *testing.T, n *Network, end, span float64) {
	t.Helper()
	spare := func() (free int) {
		for _, st := range n.tables {
			free += len(st.chunk)
		}
		return free
	}
	for was := -1; spare() != was; {
		was = spare()
		end += 100
		n.RunUntil(end)
	}
	births := func() (b uint64) {
		for _, st := range n.tables {
			b += st.births
		}
		return b
	}
	born := births()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for stop := end + span; end < stop; {
		end += 100
		n.RunUntil(end)
	}
	runtime.ReadMemStats(&after)
	calls, mallocs := births()-born, after.Mallocs-before.Mallocs
	t.Logf("%d allocations over %d calls (%.5f per call)", mallocs, calls, float64(mallocs)/float64(calls))
	if calls < 1000 {
		t.Fatalf("%d calls born in the measured span: the run does not exercise the connection pipeline", calls)
	}
	if float64(mallocs) > 0.05*float64(calls) {
		t.Fatalf("%d allocations over %d calls, want ≤ 0.05 per call", mallocs, calls)
	}
}

// On the paper ring, instant signaling and Linear paths.
func TestRingConnectionAllocatesNothing(t *testing.T) {
	cfg := scenario("static", 200, 0.8, mobility.HighMobility, 1)
	cfg.StaticReserve = 10
	cfg.Audit = nil
	n := MustNew(cfg)
	n.RunUntil(1000)
	assertCallsAllocateNothing(t, n, 1000, 4000)
}

// On a wrapped hex metro, delayed signaling on two shards and HexWalk
// paths, which draw their turns from the slot's own stream.
func TestHexConnectionAllocatesNothing(t *testing.T) {
	cfg := quietHexScenario("static", 10, 10, 2, 0.25, 150)
	cfg.StaticReserve = 10
	n := MustNew(cfg)
	n.RunUntil(1000)
	assertCallsAllocateNothing(t, n, 1000, 1000)
}

// A recycled connection slot carries nothing from its previous tenant but
// its event closure and its stream's home: scribbling over every free slot
// (and the unused tail of each table's chunk) whenever the run is
// quiescent, reseeding its stream and filling its path from a foreign
// model, grid and stream, changes no result.
func TestRecycledConnectionsCarryNoState(t *testing.T) {
	foreignTop := topology.Hex(3, 3, true)
	foreign := &mobility.HexWalk{Top: foreignTop, DiameterKm: 5, Speed: mobility.LowMobility, Persistence: 0.1}
	foreignRng := rand.New(rand.NewPCG(7, 7))
	poison := func(conn *connection, move *connMove) {
		*conn = connection{
			id: 1<<63 - 7, bw: -7, cell: -7, prevInCell: -7,
			enteredAt: math.NaN(), diesAt: math.NaN(),
			min: -7, max: -7, class: -7,
			move: conn.move, event: conn.event,
			hop:      mobility.Hop{Next: -7, Sojourn: math.NaN()},
			crossing: true, transit: true, pending: true,
		}
		move.pcg.Seed(7, 7)
		foreign.InitPath(&move.path, foreignRng, 4, mobility.SpeedRange{})
		move.path.NextHop()
	}
	softAC3 := scenario("AC3", 250, 0.6, mobility.HighMobility, 7)
	softAC3.AdaptiveVideoMin = 2
	softAC3.SoftOverlap = 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"AC3 ring", scenario("AC3", 150, 0.8, mobility.HighMobility, 7)},
		{"AC3 ring, soft hand-off and adaptive QoS", softAC3},
		{"AC3 ring, delayed signaling on 3 shards", shardedScenario("AC3", 3, 0.5, 7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(scribble bool) (*Result, int) {
				n := MustNew(tc.cfg)
				poisoned := 0
				for end := 8.0; end <= 1500; end += 93 {
					n.RunUntil(end)
					if !scribble {
						continue
					}
					for _, st := range n.tables {
						for _, conn := range st.freeConns {
							poison(conn, conn.move)
							poisoned++
						}
						for i := range st.chunk {
							poison(&st.chunk[i].connection, &st.chunk[i].move)
						}
					}
				}
				return stripTraces(n.Snapshot()), poisoned
			}
			ref, _ := run(false)
			got, poisoned := run(true)
			if ref.Total.HandOffs == 0 || poisoned == 0 {
				t.Fatalf("reference run made %d hand-offs, %d free slots poisoned: nothing recycled", ref.Total.HandOffs, poisoned)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("poisoning the free slots changed the run:\n got %+v\nwant %+v", got, ref)
			}
		})
	}
}

// A slot whose event is still booked would fire into its next tenant:
// releasing it panics.
func TestReleasingBookedConnectionPanics(t *testing.T) {
	n := MustNew(scenario("static", 100, 1, mobility.HighMobility, 1))
	c := n.cells[0]
	n.establish(c, 1, 1, core.ClassRealTime, wired.Path{}, nil, 0)
	var conn *connection
	for _, conn = range c.tab.conns {
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "with a booked event") {
			t.Fatalf("release of a booked slot: panic %q, want the booked-event guard", r)
		}
	}()
	c.tab.release(conn)
}

// mintingModel hides InitPath, as a wrapper around a mobility model does
// (bench/'s tracer): each path it mints is copied into the slot.
type mintingModel struct{ inner mobility.SpeedAware }

func (m mintingModel) NewPath(rng *rand.Rand, start topology.CellID) mobility.Path {
	return m.inner.NewPath(rng, start)
}

func (m mintingModel) NewPathWithSpeed(rng *rand.Rand, start topology.CellID, sr mobility.SpeedRange) mobility.Path {
	return m.inner.NewPathWithSpeed(rng, start, sr)
}

// A model that only mints paths runs the same simulation as the model it
// wraps, on the ring and on a delayed-signaling hex walk, whose paths
// keep drawing from the slot's stream after the copy.
func TestMintedPathsRunTheSameSimulation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"AC3 ring", scenario("AC3", 150, 0.8, mobility.HighMobility, 7)},
		{"static hex metro, delayed signaling on 2 shards", quietHexScenario("static", 8, 8, 2, 0.25, 150)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := stripTraces(MustNew(tc.cfg).Run(1000))
			cfg := tc.cfg
			cfg.Mobility = mintingModel{cfg.Mobility.(mobility.SpeedAware)}
			if got := stripTraces(MustNew(cfg).Run(1000)); !reflect.DeepEqual(got, ref) {
				t.Fatalf("minted paths changed the run:\n got %+v\nwant %+v", got, ref)
			}
		})
	}
}

// foreignPath is a Path no mobility model made.
type foreignPath struct{}

func (foreignPath) NextHop() (mobility.Hop, bool) { return mobility.Hop{Next: topology.None}, false }

type foreignModel struct{}

func (foreignModel) NewPath(*rand.Rand, topology.CellID) mobility.Path { return foreignPath{} }

// A path cellnet cannot hold in a slot panics, naming its type.
func TestForeignPathPanics(t *testing.T) {
	cfg := scenario("static", 100, 1, mobility.HighMobility, 1)
	cfg.Mobility = foreignModel{}
	n := MustNew(cfg)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "cellnet.foreignPath") {
			t.Fatalf("foreign path: panic %q, want one naming cellnet.foreignPath", r)
		}
	}()
	n.establish(n.cells[0], 1, 1, core.ClassRealTime, wired.Path{}, nil, 0)
}
