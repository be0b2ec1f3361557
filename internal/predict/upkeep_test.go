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
// history) and Merge, and after every step holds each pair's index to
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
// selected sojourn, so evicted == inserted (the invisible case) and
// evicted == current maximum both occur within a few steps.
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
		case op < 245:
			d.e.Reset()
			if _, err := d.e.ReadFrom(bytes.NewReader(d.snapshot(d.donor))); err != nil {
				d.t.Fatalf("ReadFrom: %v", err)
			}
		default:
			from := d.donor
			if op%2 == 0 {
				from = d.e
			}
			if _, err := d.e.Merge(bytes.NewReader(d.snapshot(from))); err != nil {
				d.t.Fatalf("Merge: %v", err)
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
// the one under test: the generation moves, the recorded pair's index is
// current when Record returns (querying the pair cannot move the
// generation again), and the return value says whether the selection
// changed.
func (d *upkeepDriver) record(q Quadruplet) {
	d.donor.Record(q)
	before := d.selection(q.Prev, q.Next)
	pre := d.e.Generation()
	visible := d.e.Record(q)
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
	if changed := !slices.Equal(before, d.selection(q.Prev, q.Next)); changed != visible {
		d.t.Fatalf("Record(%+v) returned visible=%v, selection changed=%v", q, visible, changed)
	}
}

// selection is what a stationary pair's index is built from: every
// cached sojourn, ascending. Derived from raw so that asking does not
// rebuild a dirty index behind Record's back.
func (d *upkeepDriver) selection(prev, next topology.LocalIndex) []float64 {
	p := d.e.pair(prev, next)
	if p == nil {
		return nil
	}
	sel := make([]float64, len(p.raw))
	for i, s := range p.raw {
		sel[i] = s.sojourn
	}
	slices.Sort(sel)
	return sel
}

// check compares every index that claims to be current with the oracle.
func (d *upkeepDriver) check() {
	for i, p := range d.e.allPairs {
		if !p.hasIndex || p.dirty {
			continue
		}
		want := &pairData{raw: slices.Clone(p.raw)}
		d.oracle.rebuildPair(want, d.now)
		if !sameBits(p.sojSorted, want.sojSorted) || !sameBits(p.wCum, want.wCum) ||
			math.Float64bits(p.maxSoj) != math.Float64bits(want.maxSoj) {
			d.t.Fatalf("pair %v diverged from a fresh rebuild:\n sojSorted %v\n     want %v\n wCum %v\n want %v\n maxSoj %v want %v",
				d.e.allKeys[i], p.sojSorted, want.sojSorted, p.wCum, want.wCum, p.maxSoj, want.maxSoj)
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
