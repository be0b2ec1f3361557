package predict

import (
	"bytes"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cellqos/internal/topology"
)

// upkeepDriver feeds one stationary estimator a byte-coded interleaving
// of Record, EvictBefore, Reset, restore (Reset + ReadFrom of a longer
// history) and self-restore (Reset + ReadFrom of its own snapshot, which
// leaves every pair dirty), and after every step holds each pair's index to
// the oracle: a fresh rebuildPair over a copy of the pair's raw samples
// must produce the same sojSorted, wCum and maxSoj bit for bit. The
// property test and FuzzRecordUpkeep share it.
type upkeepDriver struct {
	t       *testing.T
	e       *Estimator
	donor   *Estimator // same records, 3×NQuad: restores pairs longer than NQuad
	oracle  *Estimator // only its rebuildPair is used
	now     float64
	inPlace int // Records that advanced the generation by exactly one
}

func newUpkeepDriver(t *testing.T, nquad int, w0 float64) *upkeepDriver {
	cfg := Config{Tint: math.Inf(1), NQuad: nquad, Weights: []float64{w0}}
	long := cfg
	long.NQuad = 3 * nquad
	return &upkeepDriver{t: t, e: New(cfg), donor: New(long), oracle: New(cfg)}
}

// sojournAlphabet is deliberately tiny: most records duplicate a
// selected sojourn, so evicted == inserted (a replacement that leaves
// the selection as it was) and evicted == current maximum both occur
// within a few steps.
var sojournAlphabet = []float64{0, 2.5, 2.5, 7, 11.25, 40}

func (d *upkeepDriver) run(ops []byte) {
	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	for len(ops) > 0 {
		switch op := next(); {
		case op < 200:
			arg := next()
			q := Quadruplet{
				Event:   d.now,
				Prev:    topology.LocalIndex(arg % 2),
				Next:    topology.LocalIndex(1 + arg/2%2),
				Sojourn: sojournAlphabet[int(arg/4)%len(sojournAlphabet)],
			}
			if p := d.e.pair(q.Prev, q.Next); p != nil && len(p.raw) > 0 {
				switch arg / 32 {
				case 6:
					q.Sojourn = p.raw[0].sojourn // what a full pair evicts next
				case 7:
					q.Sojourn = p.maxSoj
				}
			}
			d.record(q)
			d.now += float64(op % 3)
		case op < 215:
			d.e.EvictBefore(d.now - float64(next()%16))
		case op < 225:
			d.e.EnsureCurrent(d.now) // a query: rebuilds whatever is dirty
		case op < 235:
			d.e.Reset()
		default:
			from := d.donor
			if op >= 245 {
				from = d.e
			}
			snap := d.snapshot(from)
			d.e.Reset()
			if _, err := d.e.ReadFrom(bytes.NewReader(snap)); err != nil {
				d.t.Fatalf("ReadFrom: %v", err)
			}
		}
		d.check()
	}
}

func (d *upkeepDriver) snapshot(e *Estimator) []byte {
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		d.t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// record applies q to both estimators and checks Record's contract on
// the one under test: the generation moves, and the recorded pair's
// index is current when Record returns (querying the pair cannot move
// the generation again).
func (d *upkeepDriver) record(q Quadruplet) {
	d.donor.Record(q)
	pre := d.e.Generation()
	d.e.Record(q)
	post := d.e.Generation()
	if post == pre {
		d.t.Fatalf("Record(%+v) did not move the generation", q)
	}
	if post == pre+1 {
		d.inPlace++
	}
	d.e.ensurePair(d.e.pair(q.Prev, q.Next), d.now)
	if g := d.e.Generation(); g != post {
		d.t.Fatalf("Record(%+v) left its pair's index stale: generation %d, then %d", q, post, g)
	}
}

// check compares every index that claims to be current with the oracle,
// then holds the guard-returning queries to theirs (checkNextQueries)
// and the sweep queries to the searches (checkSweep) on every
// prev-group whose pairs are all current, where querying rebuilds
// nothing and so leaves the op stream's state alone.
func (d *upkeepDriver) check() {
	for prev := range topology.LocalIndex(2) {
		g := d.e.group(prev)
		if g == nil || slices.ContainsFunc(g.pairs, func(p *pairData) bool { return !p.hasIndex || p.dirty }) {
			continue
		}
		gen := d.e.Generation()
		checkNextQueries(d.t, d.e, d.now, prev, []float64{0, 2.5, 11.25}, []float64{4.5, 40}, 3)
		checkSweep(d.t, d.e, d.now, prev, []float64{0, 2.5, 2.5, 9, 40, 41}, []float64{0, 4.5}, 3)
		if g := d.e.Generation(); g != gen {
			d.t.Fatalf("queries on a current group moved the generation %d -> %d", gen, g)
		}
	}
	for prev, g := range d.e.prevs {
		if g == nil {
			continue
		}
		for next, p := range g.byNext {
			if p == nil || !p.hasIndex || p.dirty {
				continue
			}
			want := &pairData{raw: slices.Clone(p.raw)}
			d.oracle.rebuildPair(want, d.now)
			if !sameBits(p.sojSorted, want.sojSorted) || !sameBits(p.wCum, want.wCum) ||
				math.Float64bits(p.maxSoj) != math.Float64bits(want.maxSoj) {
				d.t.Fatalf("pair (%d,%d) diverged from a fresh rebuild:\n sojSorted %v\n     want %v\n wCum %v\n want %v\n maxSoj %v want %v",
					prev, next, p.sojSorted, want.sojSorted, p.wCum, want.wCum, p.maxSoj, want.maxSoj)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestPropertyRecordUpkeep is the invariant behind the in-place write
// path: whatever the interleaving of mutators, an index that claims to
// be current equals a fresh rebuildPair of the same raw samples.
func TestPropertyRecordUpkeep(t *testing.T) {
	r := rand.New(rand.NewPCG(0x5EC0D, 13))
	for _, nquad := range []int{1, 2, 7, 100} {
		for _, w0 := range []float64{1, 0.7} {
			inPlace := 0
			for trial := 0; trial < 20; trial++ {
				ops := make([]byte, 40*nquad+200)
				for i := range ops {
					ops[i] = byte(r.UintN(256))
				}
				d := newUpkeepDriver(t, nquad, w0)
				d.run(ops)
				inPlace += d.inPlace
			}
			// rebuildPair bumps the generation a second time, so a
			// Record that moved it by one took the in-place path; the
			// property is vacuous if none did.
			if inPlace == 0 {
				t.Fatalf("NQuad %d, w0 %v: no Record took the in-place path", nquad, w0)
			}
		}
	}
}

// TestInvisibleRecordQueriesIdentical: recording into a full stationary
// pair a sojourn equal to the one it evicts — the in-place path's
// remove-then-insert of equal values — leaves every query bit-identical,
// though the generation moves.
func TestInvisibleRecordQueriesIdentical(t *testing.T) {
	e := New(Config{Tint: math.Inf(1), NQuad: 2})
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 60})
	e.Record(Quadruplet{Event: 2, Prev: 1, Next: 1, Sojourn: 40})

	type snapshot struct {
		prob, surv, probOther, maxSoj float64
	}
	take := func() snapshot {
		return snapshot{
			prob:      e.HandOffProb(100, 1, 0, 35, 2),
			surv:      e.SurvivorWeight(100, 1, 10),
			probOther: e.HandOffProb(100, 1, 5, 50, 1),
			maxSoj:    e.MaxSojourn(100),
		}
	}
	before, gen := take(), e.Generation()
	// Pair (1,2) is full holding {30, 60}; oldest is 30. Record a 30.
	e.Record(Quadruplet{Event: 50, Prev: 1, Next: 2, Sojourn: 30})
	if e.Generation() == gen {
		t.Fatal("Record did not move the generation")
	}
	if after := take(); after != before {
		t.Fatalf("queries moved after an equal-sojourn replacement:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestRecordUpkeepLongRun fills pairs far past NQuad with nothing but
// Records — the steady state of a simulation run — so every Record after
// the first per pair is in place and most evict.
func TestRecordUpkeepLongRun(t *testing.T) {
	r := rand.New(rand.NewPCG(0x10C6, 1))
	for _, w0 := range []float64{1, 0.7} {
		d := newUpkeepDriver(t, 100, w0)
		ops := make([]byte, 2*2000)
		for i := 0; i < len(ops); i += 2 {
			ops[i], ops[i+1] = byte(r.UintN(200)), byte(r.UintN(256))
		}
		d.run(ops)
		if pairs := len(d.e.allPairs); d.inPlace != 2000-pairs {
			t.Fatalf("w0 %v: %d of 2000 records in place, want all but the first of each of %d pairs", w0, d.inPlace, pairs)
		}
	}
}
