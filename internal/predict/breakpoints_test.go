package predict

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"cellqos/internal/topology"
)

// TestEnsureCurrentStabilizesGeneration pins the contract core's
// materialized Eq. 5 view depends on: after EnsureCurrent(t0), no query
// at the same t0 may move the generation (no lazy rebuild can fire), so
// a caller that captured the returned value can trust every subsequent
// derived read at t0.
func TestEnsureCurrentStabilizesGeneration(t *testing.T) {
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"stationary", StationaryConfig()},
		{"windowed", Config{Tint: 40, Period: 200, NwinPeriods: 1, NQuad: 30, RebuildEvery: 5}},
	}
	for _, tc := range cfgs {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.cfg)
			for i := 0; i < 25; i++ {
				e.Record(Quadruplet{Event: float64(i * 3), Prev: topology.LocalIndex(i % 3), Next: topology.LocalIndex(1 + i%2), Sojourn: float64(5 + i%40)})
			}
			for _, t0 := range []float64{80, 92.5, 140} {
				gen := e.EnsureCurrent(t0)
				if g := e.Generation(); g != gen {
					t.Fatalf("t0=%v: EnsureCurrent returned %d but Generation() = %d", t0, gen, g)
				}
				// Exercise every query family at the pinned t0.
				e.SurvivorWeight(t0, 1, 7)
				e.HandOffWeight(t0, 1, 2, 7, 20)
				e.SurvivorWeightNext(t0, 2, 7)
				e.HandOffWeightNext(t0, 2, 1, 7, 20)
				e.SojournProb(t0, 0, 1, 3, 20)
				e.MaxSojourn(t0)
				if g := e.Generation(); g != gen {
					t.Fatalf("t0=%v: queries after EnsureCurrent moved the generation %d -> %d", t0, gen, g)
				}
			}
			// A Record must still move it.
			gen := e.EnsureCurrent(150)
			e.Record(Quadruplet{Event: 150, Prev: 1, Next: 2, Sojourn: 9})
			if g := e.Generation(); g == gen {
				t.Fatal("Record did not move the generation")
			}
		})
	}
}

// checkNextQueries holds SurvivorWeightNext and HandOffWeightNext from
// prev, at every extant sojourn ext in exts and window test in tests,
// to their definitions: the values are bit for bit SurvivorWeight's and
// HandOffWeight's, and the group's Σ weightAbove and the pair's
// weightIn; next is the smallest selected sojourn of the group strictly
// above ext and hi the smallest of the pair's strictly above ext+test,
// both read off Selected (+Inf when there is none). Directions
// 0..maxNext are probed, never-seen pairs included.
func checkNextQueries(t *testing.T, e *Estimator, t0 float64, prev topology.LocalIndex, exts, tests []float64, maxNext topology.LocalIndex) {
	t.Helper()
	sel := e.Selected(t0, prev)
	for _, ext := range exts {
		for _, test := range tests {
			checkNextAt(t, e, t0, prev, ext, test, maxNext, sel)
		}
	}
}

func checkNextAt(t *testing.T, e *Estimator, t0 float64, prev topology.LocalIndex, ext, test float64, maxNext topology.LocalIndex, sel []WeightedSample) {
	t.Helper()
	above := func(x float64, next topology.LocalIndex, anyNext bool) float64 {
		for _, s := range sel {
			if s.Sojourn > x && (anyNext || s.Next == next) {
				return s.Sojourn
			}
		}
		return math.Inf(1)
	}
	bits := math.Float64bits
	den, next := e.SurvivorWeightNext(t0, prev, ext)
	sum := 0.0
	if g := e.group(prev); g != nil {
		for _, p := range g.pairs {
			sum += p.weightAbove(ext)
		}
	}
	if bits(den) != bits(e.SurvivorWeight(t0, prev, ext)) || bits(den) != bits(sum) {
		t.Fatalf("prev %d ext %v: SurvivorWeightNext den %v, SurvivorWeight %v, Σ weightAbove %v",
			prev, ext, den, e.SurvivorWeight(t0, prev, ext), sum)
	}
	if want := above(ext, 0, true); next != want {
		t.Fatalf("prev %d ext %v: next %v, want %v", prev, ext, next, want)
	}
	for to := topology.LocalIndex(0); to <= maxNext; to++ {
		w, hi := e.HandOffWeightNext(t0, prev, to, ext, test)
		want := 0.0
		if p := e.pair(prev, to); p != nil {
			want = p.weightIn(ext, ext+test)
		}
		if bits(w) != bits(e.HandOffWeight(t0, prev, to, ext, test)) || bits(w) != bits(want) {
			t.Fatalf("prev %d -> %d ext %v test %v: HandOffWeightNext w %v, HandOffWeight %v, weightIn %v",
				prev, to, ext, test, w, e.HandOffWeight(t0, prev, to, ext, test), want)
		}
		if want := above(ext+test, to, false); hi != want {
			t.Fatalf("prev %d -> %d ext %v test %v: hi %v, want %v", prev, to, ext, test, hi, want)
		}
	}
}

// checkSweep holds the sweep queries to the searches they replace: for
// each window in tests it visits exts in order and, at each, asks
// SweepNext and SweepHandOffNext toward every direction 0..maxNext,
// never-seen pairs included; both must return SurvivorWeightNext's and
// HandOffWeightNext's values bit for bit. When exts is non-decreasing,
// no cursor of prev's group may move backward after a window's first
// extant sojourn: the sweep merges instead of searching.
func checkSweep(t *testing.T, e *Estimator, t0 float64, prev topology.LocalIndex, exts, tests []float64, maxNext topology.LocalIndex) {
	t.Helper()
	bits := math.Float64bits
	var pairs []*pairData
	if g := e.group(prev); g != nil {
		pairs = g.pairs
	}
	cursors := func() []int32 {
		var cs []int32
		for _, p := range pairs {
			cs = append(cs, p.lo, p.hi)
		}
		return cs
	}
	ascending := slices.IsSorted(exts)
	for _, test := range tests {
		var last []int32
		for k, ext := range exts {
			den, next := e.SurvivorWeightNext(t0, prev, ext)
			for to := topology.LocalIndex(0); to <= maxNext; to++ {
				w, hi := e.HandOffWeightNext(t0, prev, to, ext, test)
				sden, snext, sw, shi := e.SweepNext(prev, to, ext, test)
				if bits(sden) != bits(den) || bits(snext) != bits(next) || bits(sw) != bits(w) || bits(shi) != bits(hi) {
					t.Fatalf("prev %d -> %d ext %v test %v: SweepNext = (%v, %v, %v, %v), searches (%v, %v, %v, %v)",
						prev, to, ext, test, sden, snext, sw, shi, den, next, w, hi)
				}
				if hw, hhi := e.SweepHandOffNext(prev, to, ext, test); bits(hw) != bits(w) || bits(hhi) != bits(hi) {
					t.Fatalf("prev %d -> %d ext %v test %v: SweepHandOffNext = (%v, %v), HandOffWeightNext (%v, %v)",
						prev, to, ext, test, hw, hhi, w, hi)
				}
			}
			now := cursors()
			if ascending && k > 0 {
				for i := range now {
					if now[i] < last[i] {
						t.Fatalf("prev %d test %v: a cursor moved back from %d to %d at ext %v in an ascending sweep %v",
							prev, test, last[i], now[i], ext, exts)
					}
				}
			}
			last = now
		}
	}
}

// TestSweepMatchesSearches holds the sweep queries to the searches over
// random groups of 1–7 pairs with tied sojourns and emptied pairs:
// ascending extant sojourns with repeats, on, between and past the
// selected sojourns (and one so large that adding the window leaves it
// unchanged), windows of 0 and more, directions never seen; then the
// same extant sojourns shuffled, where the cursors must rewind.
func TestSweepMatchesSearches(t *testing.T) {
	r := rand.New(rand.NewPCG(0x5EE9, 39))
	for trial := 0; trial < 300; trial++ {
		k := 1 + r.IntN(7)
		e, event := randomGroup(r, k)
		e.EnsureCurrent(event)
		exts := make([]float64, 1+r.IntN(30))
		for i := range exts {
			exts[i] = float64(r.IntN(21)) / 4
		}
		if r.IntN(4) == 0 {
			exts = append(exts, 1e17)
		}
		slices.Sort(exts)
		tests := []float64{0, float64(1+r.IntN(8)) / 2, r.Float64() * 6}
		checkSweep(t, e, event, 1, exts, tests, topology.LocalIndex(k+1))
		r.Shuffle(len(exts), func(i, j int) { exts[i], exts[j] = exts[j], exts[i] })
		checkSweep(t, e, event, 1, exts, tests[1:2], topology.LocalIndex(k+1))
		checkSweep(t, e, event, 2, exts, tests, 2) // unseen prev
	}
}

// TestNextQueriesSmallGroup checks the two guard-returning queries on a
// hand-made group, on and between its sojourns, for an unseen prev and
// an unseen pair, and that they allocate nothing.
func TestNextQueriesSmallGroup(t *testing.T) {
	e := stationary(100)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.Record(Quadruplet{Event: 1, Prev: 1, Next: 3, Sojourn: 10})
	e.Record(Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 20})
	e.Record(Quadruplet{Event: 3, Prev: 2, Next: 1, Sojourn: 99})

	inf := math.Inf(1)
	for _, tc := range []struct{ ext, den, next float64 }{
		{0, 3, 10}, {10, 2, 20}, {15, 2, 20}, {20, 1, 30}, {30, 0, inf}, {45, 0, inf},
	} {
		if den, next := e.SurvivorWeightNext(10, 1, tc.ext); den != tc.den || next != tc.next {
			t.Fatalf("SurvivorWeightNext(prev 1, ext %v) = (%v, %v), want (%v, %v)", tc.ext, den, next, tc.den, tc.next)
		}
	}
	// Pair (1, 2) holds {20, 30}: hi is its own next sojourn above
	// ext+test, never pair (1, 3)'s.
	for _, tc := range []struct{ ext, test, w, hi float64 }{
		{0, 5, 0, 20}, {0, 20, 1, 30}, {5, 25, 2, inf}, {10, 0, 0, 20},
	} {
		if w, hi := e.HandOffWeightNext(10, 1, 2, tc.ext, tc.test); w != tc.w || hi != tc.hi {
			t.Fatalf("HandOffWeightNext(1→2, ext %v, test %v) = (%v, %v), want (%v, %v)", tc.ext, tc.test, w, hi, tc.w, tc.hi)
		}
	}
	if den, next := e.SurvivorWeightNext(10, 7, 0); den != 0 || next != inf {
		t.Fatalf("unseen prev: (%v, %v), want (0, +Inf)", den, next)
	}
	if w, hi := e.HandOffWeightNext(10, 2, 3, 0, 50); w != 0 || hi != inf {
		t.Fatalf("unseen pair: (%v, %v), want (0, +Inf)", w, hi)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.SurvivorWeightNext(10, 1, 12)
		e.HandOffWeightNext(10, 1, 2, 12, 9)
	})
	if allocs != 0 {
		t.Fatalf("guard-returning queries allocated %v times per run", allocs)
	}
}

// randomGroup builds an estimator whose prev 1 has k pairs with random
// selections over a half-integer sojourn alphabet (so probe points land
// on sojourns), pairs 3, 6, 9, ... recorded first and then evicted, so
// they stay in the group with an empty selection. It returns the time
// of the last record.
func randomGroup(r *rand.Rand, k int) (*Estimator, float64) {
	e := New(Config{Tint: math.Inf(1), NQuad: 12, Weights: []float64{0.7}})
	event := 0.0
	for _, empty := range []bool{true, false} {
		for next := 1; next <= k; next++ {
			if (next%3 == 0) != empty {
				continue
			}
			for i := r.IntN(15); i >= 0; i-- {
				e.Record(Quadruplet{Event: event, Prev: 1, Next: topology.LocalIndex(next), Sojourn: float64(r.IntN(9)) / 2})
				event++
			}
		}
		if empty {
			e.EvictBefore(event)
		}
	}
	return e, event
}

// TestGroupMergeMatchesSort pins Selected against its definition: for a
// group of k pairs — k from 1 past any plausible cell degree, some pairs
// emptied by eviction — it is the pairs' selected samples (sojourn,
// weight, next) in ascending sojourn order.
func TestGroupMergeMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(0x3E26E, 20))
	for k := 1; k <= 20; k++ {
		e, event := randomGroup(r, k)
		var wantSel []WeightedSample
		for i, p := range e.group(1).pairs {
			e.ensurePair(p, event)
			for j, soj := range p.sojSorted {
				w := p.wCum[j]
				if j > 0 {
					w -= p.wCum[j-1]
				}
				wantSel = append(wantSel, WeightedSample{Sojourn: soj, Weight: w, Next: e.group(1).nexts[i]})
			}
		}
		byAll := func(a, b WeightedSample) int {
			return cmp.Or(cmp.Compare(a.Sojourn, b.Sojourn), cmp.Compare(a.Next, b.Next), cmp.Compare(a.Weight, b.Weight))
		}
		slices.SortFunc(wantSel, byAll)

		gotSel := e.Selected(event, 1)
		if !slices.IsSortedFunc(gotSel, func(a, b WeightedSample) int { return cmp.Compare(a.Sojourn, b.Sojourn) }) {
			t.Fatalf("k=%d: Selected not ascending in sojourn: %v", k, gotSel)
		}
		slices.SortFunc(gotSel, byAll)
		if !slices.Equal(gotSel, wantSel) {
			t.Fatalf("k=%d: Selected = %v, want %v", k, gotSel, wantSel)
		}
	}
}

// TestNextQueriesMatchSelected is the estimator oracle of the Eq. 5
// view's guards over random groups: at extant sojourns on, between and
// past the selected sojourns, and windows that put ext+test on them
// too, both queries return their wrappers' values and the smallest
// sojourn strictly above each edge.
func TestNextQueriesMatchSelected(t *testing.T) {
	r := rand.New(rand.NewPCG(0x3E26E, 21))
	for k := 1; k <= 20; k++ {
		e, event := randomGroup(r, k)
		checkNextQueries(t, e, event, 1, []float64{0, 0.25, 1, 2.5, 3.75, 4, 4.5, 9},
			[]float64{0, 0.5, 1.25, 3, 100}, topology.LocalIndex(k+1))
		checkNextQueries(t, e, event, 2, []float64{1}, []float64{1}, 2) // unseen prev
	}
}

// TestQueriesPiecewiseConstantBetweenBreakpoints is the property the
// incremental view's staleness guards rest on: every Eq. 4 query from a
// prev is a step function of the extant sojourn, constant — bit for
// bit — for every x ≥ ext with x < next (SurvivorWeightNext's) and
// x+test below the hi of what it reads: HandOffWeightNext's for a
// numerator, the group-wide next sojourn above ext+test for
// SojournProb, whose fallback reads every pair. Probes sit on both
// guards' last representable values, where an off-by-one-ulp guard
// would show.
func TestQueriesPiecewiseConstantBetweenBreakpoints(t *testing.T) {
	e := stationary(100)
	r := rand.New(rand.NewPCG(0xB4EA4, 7))
	for i := 0; i < 60; i++ {
		e.Record(Quadruplet{
			Event:   float64(i),
			Prev:    topology.LocalIndex(r.IntN(3)),
			Next:    topology.LocalIndex(1 + r.IntN(3)),
			Sojourn: float64(1 + r.IntN(25)),
		})
	}
	const t0 = 100.0
	bits := math.Float64bits
	for prev := topology.LocalIndex(0); prev < 3; prev++ {
		for _, ext := range []float64{0, 0.5, 3, 7.25, 12, 24.5, 30} {
			for _, test := range []float64{0.75, 6, 13.5} {
				den, next := e.SurvivorWeightNext(t0, prev, ext)
				_, groupHi := e.SurvivorWeightNext(t0, prev, ext+test)
				holds := func(x, hi float64) bool { return x >= ext && x < next && x+test < hi }
				probes := func(hi float64) []float64 {
					xs := []float64{ext, ext + (next-ext)/2, math.Nextafter(next, ext), hi - test, math.Nextafter(hi-test, ext)}
					for range 8 {
						xs = append(xs, ext+r.Float64()*min(next-ext, 30))
					}
					return xs
				}
				for _, x := range probes(groupHi) {
					if !holds(x, math.Inf(1)) {
						continue
					}
					if bits(e.SurvivorWeight(t0, prev, x)) != bits(den) {
						t.Fatalf("prev %d: SurvivorWeight(%v) != SurvivorWeight(%v) though %v < next %v", prev, x, ext, x, next)
					}
					if !holds(x, groupHi) {
						continue
					}
					for hint := topology.LocalIndex(1); hint <= 4; hint++ {
						if bits(e.SojournProb(t0, prev, hint, x, test)) != bits(e.SojournProb(t0, prev, hint, ext, test)) {
							t.Fatalf("prev %d hint %d test %v: SojournProb(%v) != SojournProb(%v) inside the group guards", prev, hint, test, x, ext)
						}
					}
				}
				for to := topology.LocalIndex(1); to <= 4; to++ {
					w, hi := e.HandOffWeightNext(t0, prev, to, ext, test)
					for _, x := range probes(hi) {
						if holds(x, hi) && bits(e.HandOffWeight(t0, prev, to, x, test)) != bits(w) {
							t.Fatalf("prev %d -> %d test %v: HandOffWeight(%v) != HandOffWeight(%v) though %v < next %v and +test < hi %v",
								prev, to, test, x, ext, x, next, hi)
						}
					}
				}
			}
		}
	}
}
