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
				e.SojournProb(t0, 0, 1, 3, 20)
				e.MaxSojourn(t0)
				e.AppendSojournBreakpoints(nil, t0, 2)
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

// TestAppendSojournBreakpoints checks content and ordering: the list is
// the sorted multiset union of the prev-group's selected sojourns, and
// reusing the buffer keeps the call allocation-free.
func TestAppendSojournBreakpoints(t *testing.T) {
	e := stationary(100)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 30})
	e.Record(Quadruplet{Event: 1, Prev: 1, Next: 3, Sojourn: 10})
	e.Record(Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 20})
	e.Record(Quadruplet{Event: 3, Prev: 2, Next: 1, Sojourn: 99})

	got := e.AppendSojournBreakpoints(nil, 10, 1)
	want := []float64{10, 20, 30}
	if !slices.Equal(got, want) {
		t.Fatalf("breakpoints for prev 1 = %v, want %v", got, want)
	}
	if bp := e.AppendSojournBreakpoints(nil, 10, 7); len(bp) != 0 {
		t.Fatalf("breakpoints for unseen prev = %v, want empty", bp)
	}
	// Appending preserves the prefix and sorts only the tail.
	pre := []float64{-1}
	got = e.AppendSojournBreakpoints(pre, 10, 2)
	if !slices.Equal(got, []float64{-1, 99}) {
		t.Fatalf("append with prefix = %v, want [-1 99]", got)
	}
	buf := make([]float64, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		buf = e.AppendSojournBreakpoints(buf[:0], 10, 1)
	})
	if allocs != 0 {
		t.Fatalf("AppendSojournBreakpoints with a reused buffer allocated %v times per run", allocs)
	}
}

// TestGroupMergeMatchesSort pins the sort-free group exports against the
// definition they replaced: for a group of k pairs — k from 1 past any
// plausible cell degree, some pairs emptied by eviction —
// AppendSojournBreakpoints is slices.Sort of the pairs' concatenated
// selections, AppendSelected is the same samples (sojourn, weight, next)
// in ascending sojourn order, and both leave a non-empty dst prefix
// alone.
func TestGroupMergeMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(0x3E26E, 20))
	for k := 1; k <= 20; k++ {
		e := New(Config{Tint: math.Inf(1), NQuad: 12, Weights: []float64{0.7}})
		// Pairs 3, 6, 9, ... are recorded first and evicted below, so
		// they stay in the group with an empty selection.
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
		var wantBP []float64
		var wantSel []WeightedSample
		for i, p := range e.group(1).pairs {
			e.ensurePair(p, event)
			wantBP = append(wantBP, p.sojSorted...)
			for j, soj := range p.sojSorted {
				w := p.wCum[j]
				if j > 0 {
					w -= p.wCum[j-1]
				}
				wantSel = append(wantSel, WeightedSample{Sojourn: soj, Weight: w, Next: e.group(1).nexts[i]})
			}
		}
		slices.Sort(wantBP)
		byAll := func(a, b WeightedSample) int {
			return cmp.Or(cmp.Compare(a.Sojourn, b.Sojourn), cmp.Compare(a.Next, b.Next), cmp.Compare(a.Weight, b.Weight))
		}
		slices.SortFunc(wantSel, byAll)

		gotBP := e.AppendSojournBreakpoints([]float64{99, -1}, event, 1)
		if !slices.Equal(gotBP[:2], []float64{99, -1}) || !slices.Equal(gotBP[2:], wantBP) {
			t.Fatalf("k=%d: breakpoints %v, want prefix [99 -1] then %v", k, gotBP, wantBP)
		}
		prefix := WeightedSample{Sojourn: 99, Weight: 3, Next: 7}
		gotSel := e.AppendSelected([]WeightedSample{prefix}, event, 1)
		if gotSel[0] != prefix {
			t.Fatalf("k=%d: AppendSelected overwrote the dst prefix: %v", k, gotSel[0])
		}
		gotSel = gotSel[1:]
		if !slices.IsSortedFunc(gotSel, func(a, b WeightedSample) int { return cmp.Compare(a.Sojourn, b.Sojourn) }) {
			t.Fatalf("k=%d: AppendSelected not ascending in sojourn: %v", k, gotSel)
		}
		slices.SortFunc(gotSel, byAll) // ties between pairs come in no promised order
		if !slices.Equal(gotSel, wantSel) {
			t.Fatalf("k=%d: AppendSelected = %v, want %v", k, gotSel, wantSel)
		}
	}
}

// TestAppendSelectedAllocFree pins AppendSelected's documented promise.
func TestAppendSelectedAllocFree(t *testing.T) {
	e := stationary(100)
	for i := 0; i < 300; i++ {
		e.Record(Quadruplet{Event: float64(i), Prev: 1, Next: topology.LocalIndex(1 + i%3), Sojourn: float64(i * 7 % 40)})
	}
	buf := make([]WeightedSample, 0, 300)
	allocs := testing.AllocsPerRun(100, func() {
		buf = e.AppendSelected(buf[:0], 300, 1)
	})
	if allocs != 0 {
		t.Fatalf("AppendSelected with a reused buffer allocated %v times per run", allocs)
	}
}

// TestQueriesPiecewiseConstantBetweenBreakpoints is the property the
// incremental view's staleness guards rest on: every Eq. 4 query from a
// prev is a step function of the extant sojourn whose discontinuities
// all lie on the group's breakpoint list — between two adjacent
// breakpoints the value is bit-identical.
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
	const t0, test = 100.0, 6.0
	for prev := topology.LocalIndex(0); prev < 3; prev++ {
		bp := e.AppendSojournBreakpoints(nil, t0, prev)
		// Probe points strictly inside each inter-breakpoint interval,
		// plus beyond the last breakpoint.
		probes := [][2]float64{}
		lo := 0.0
		for _, b := range append(slices.Clone(bp), bp[len(bp)-1]+10) {
			if b <= lo {
				continue
			}
			mid := lo + (b-lo)/2
			hi := math.Nextafter(b, lo) // greatest float still below b
			probes = append(probes, [2]float64{mid, hi})
			lo = b
		}
		for _, pr := range probes {
			a, b := pr[0], pr[1]
			if e.SurvivorWeight(t0, prev, a) != e.SurvivorWeight(t0, prev, b) {
				t.Fatalf("prev %d: SurvivorWeight not constant on [%v, %v]", prev, a, b)
			}
			for next := topology.LocalIndex(1); next <= 3; next++ {
				// Same-interval probes with the same +test offset keep the
				// numerator constant only when ext+test also stays inside
				// one interval; check the lower edge alone by pinning the
				// upper edge far beyond every breakpoint.
				far := bp[len(bp)-1] + 100
				wa := e.pair(prev, next)
				if wa == nil {
					continue
				}
				if wa.weightIn(a, far) != wa.weightIn(b, far) {
					t.Fatalf("prev %d -> %d: numerator lower edge not constant on [%v, %v]", prev, next, a, b)
				}
			}
			_ = test
		}
	}
}
