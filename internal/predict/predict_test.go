package predict

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"cellqos/internal/topology"
)

func stationary(nquad int) *Estimator {
	return New(Config{Tint: math.Inf(1), NQuad: nquad})
}

func TestEmptyEstimator(t *testing.T) {
	e := stationary(100)
	if got := e.HandOffProb(0, 1, 0, 100, 2); got != 0 {
		t.Fatalf("ph on empty estimator = %v, want 0", got)
	}
	if got := e.MaxSojourn(0); got != 0 {
		t.Fatalf("MaxSojourn empty = %v, want 0", got)
	}
}

func TestSingleQuadrupletBayes(t *testing.T) {
	e := stationary(100)
	e.Record(Quadruplet{Event: 100, Prev: 1, Next: 2, Sojourn: 30})

	// Mobile still here after 10 s; within the next 30 s it should hand
	// off into cell 2 with certainty (the only observation says so).
	if got := e.HandOffProb(200, 1, 10, 30, 2); got != 1 {
		t.Fatalf("ph = %v, want 1", got)
	}
	// Window (10, 20] excludes the 30 s sojourn: no hand-off predicted yet.
	if got := e.HandOffProb(200, 1, 10, 10, 2); got != 0 {
		t.Fatalf("ph with short Test = %v, want 0", got)
	}
	// Extant sojourn beyond every observation ⇒ estimated stationary.
	if got := e.HandOffProb(200, 1, 35, 100, 2); got != 0 {
		t.Fatalf("ph stationary case = %v, want 0", got)
	}
	// Different prev has no data.
	if got := e.HandOffProb(200, 2, 10, 30, 2); got != 0 {
		t.Fatalf("ph unknown prev = %v, want 0", got)
	}
}

func TestExactBoundarySemantics(t *testing.T) {
	// Eq. 4 denominator is over T_soj > T_ext-soj (strict); the numerator
	// window is (T_ext-soj, T_ext-soj + T_est] (closed on the right).
	e := stationary(100)
	e.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 10})
	if got := e.HandOffProb(2, 1, 10, 5, 2); got != 0 {
		t.Fatalf("sojourn equal to extant: ph = %v, want 0 (strict >)", got)
	}
	if got := e.HandOffProb(2, 1, 5, 5, 2); got != 1 {
		t.Fatalf("sojourn at window right edge: ph = %v, want 1 (≤)", got)
	}
}

func TestMultiNextDistribution(t *testing.T) {
	e := stationary(100)
	// From prev 1: 3 hand-offs to next 2 (soj 10) and 1 to next 3 (soj 40).
	for i := 0; i < 3; i++ {
		e.Record(Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 10})
	}
	e.Record(Quadruplet{Event: 3, Prev: 1, Next: 3, Sojourn: 40})

	// Fresh mobile (extSoj 0), long window: splits 3/4 vs 1/4.
	if got := e.HandOffProb(10, 1, 0, 100, 2); got != 0.75 {
		t.Fatalf("ph(→2) = %v, want 0.75", got)
	}
	if got := e.HandOffProb(10, 1, 0, 100, 3); got != 0.25 {
		t.Fatalf("ph(→3) = %v, want 0.25", got)
	}
	// After 20 s the next-2 sojourns are ruled out: only next 3 remains.
	if got := e.HandOffProb(10, 1, 20, 100, 3); got != 1 {
		t.Fatalf("ph(→3 | extSoj 20) = %v, want 1", got)
	}
	if got := e.HandOffProb(10, 1, 20, 100, 2); got != 0 {
		t.Fatalf("ph(→2 | extSoj 20) = %v, want 0", got)
	}
	// Short Test window reaches only part of the mass: (0, 10] contains
	// the three next-2 sojourns; denominator is all four.
	if got := e.HandOffProb(10, 1, 0, 10, 2); got != 0.75 {
		t.Fatalf("ph(→2, Test=10) = %v, want 0.75", got)
	}
	if got := e.HandOffProb(10, 1, 0, 10, 3); got != 0 {
		t.Fatalf("ph(→3, Test=10) = %v, want 0", got)
	}
}

// TestHandOffProbsMatchesScalarQueries pins the split the Eq. 5 view
// relies on: for every next, HandOffProb is bit for bit HandOffWeight
// divided by SurvivorWeight (0 when the denominator is), and the
// probabilities out of one prev sum to at most 1.
func TestHandOffProbsMatchesScalarQueries(t *testing.T) {
	e := stationary(100)
	r := rand.New(rand.NewPCG(1, 0))
	for i := 0; i < 200; i++ {
		e.Record(Quadruplet{
			Event:   float64(i),
			Prev:    topology.LocalIndex(r.IntN(3)),
			Next:    topology.LocalIndex(1 + r.IntN(3)),
			Sojourn: r.Float64() * 100,
		})
	}
	for _, prev := range []topology.LocalIndex{0, 1, 2, 7} {
		for _, extSoj := range []float64{0, 10, 50, 200} {
			den := e.SurvivorWeight(300, prev, extSoj)
			sum := 0.0
			for next := topology.LocalIndex(1); next <= 4; next++ {
				got := e.HandOffProb(300, prev, extSoj, 25, next)
				want := 0.0
				if den != 0 {
					want = e.HandOffWeight(300, prev, next, extSoj, 25) / den
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("prev %d, ext %v: HandOffProb(→%d) = %v, weight/survivor = %v", prev, extSoj, next, got, want)
				}
				sum += got
			}
			if sum > 1+1e-9 {
				t.Fatalf("Σ ph = %v > 1", sum)
			}
		}
	}
}

func TestNQuadRecencyCap(t *testing.T) {
	e := stationary(100)
	// 150 samples; the oldest 50 (sojourn 1000, distinguishable) must be
	// evicted, leaving only the newest 100 (sojourn 10).
	for i := 0; i < 50; i++ {
		e.Record(Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 1000})
	}
	for i := 50; i < 150; i++ {
		e.Record(Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 10})
	}
	if e.Recorded() != 150 || e.Evicted() != 50 {
		t.Fatalf("recorded/evicted = %d/%d, want 150/50", e.Recorded(), e.Evicted())
	}
	if got := e.SelectedCount(200); got != 100 {
		t.Fatalf("SelectedCount = %d, want 100", got)
	}
	if got := e.MaxSojourn(200); got != 10 {
		t.Fatalf("MaxSojourn = %v, want 10 (old samples evicted)", got)
	}
}

func TestMaxSojourn(t *testing.T) {
	e := stationary(100)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 33})
	e.Record(Quadruplet{Event: 1, Prev: 2, Next: 1, Sojourn: 77})
	if got := e.MaxSojourn(10); got != 77 {
		t.Fatalf("MaxSojourn = %v, want 77", got)
	}
}

func TestFiniteWindowWeights(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 1, Weights: []float64{1, 0.5}, NQuad: 100}
	e := New(cfg)
	// Out of every window: 05:00 yesterday.
	e.Record(Quadruplet{Event: 5 * 3600, Prev: 1, Next: 3, Sojourn: 10})
	// Same time-of-day yesterday (n=1 window): weight 0.5.
	e.Record(Quadruplet{Event: 43200, Prev: 1, Next: 2, Sojourn: 10})
	// n=0 window today: weight 1.
	e.Record(Quadruplet{Event: 127800, Prev: 1, Next: 3, Sojourn: 20})

	t0 := 129600.0 // 12:00 on day 1
	// den = 1 + 0.5; num(→2) = 0.5; num(→3) = 1.
	if got := e.HandOffProb(t0, 1, 5, 100, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("ph(→2) = %v, want 1/3", got)
	}
	if got := e.HandOffProb(t0, 1, 5, 100, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("ph(→3) = %v, want 2/3", got)
	}
	// The out-of-window event (next 3, soj 10) must not contribute: with
	// extSoj 15 only the day-1 soj-20 event remains.
	if got := e.HandOffProb(t0, 1, 15, 100, 3); got != 1 {
		t.Fatalf("ph(→3 | extSoj 15) = %v, want 1", got)
	}
}

func TestFiniteWindowPriorityClosestToNow(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 0, Weights: []float64{1}, NQuad: 2}
	e := New(cfg)
	e.Record(Quadruplet{Event: 7000, Prev: 1, Next: 2, Sojourn: 1})
	e.Record(Quadruplet{Event: 8000, Prev: 1, Next: 2, Sojourn: 2})
	e.Record(Quadruplet{Event: 9500, Prev: 1, Next: 2, Sojourn: 3})
	sel := e.Selected(10000, 1)
	if len(sel) != 2 {
		t.Fatalf("selected %d samples, want 2 (NQuad)", len(sel))
	}
	// Events 8000 and 9500 are closest to t0=10000; their sojourns are 2, 3.
	if sel[0].Sojourn != 2 || sel[1].Sojourn != 3 {
		t.Fatalf("selected sojourns = %v,%v want 2,3", sel[0].Sojourn, sel[1].Sojourn)
	}
}

func TestFiniteWindowN0OutranksN1(t *testing.T) {
	// With NQuad=1 and candidates in both windows, n=0 wins (first
	// priority rule: smaller n).
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 1, Weights: []float64{1, 1}, NQuad: 1}
	e := New(cfg)
	e.Record(Quadruplet{Event: 43200, Prev: 1, Next: 2, Sojourn: 111})  // yesterday noon
	e.Record(Quadruplet{Event: 129000, Prev: 1, Next: 2, Sojourn: 222}) // today, near noon
	sel := e.Selected(129600, 1)
	if len(sel) != 1 || sel[0].Sojourn != 222 {
		t.Fatalf("selected = %+v, want single n=0 sample (soj 222)", sel)
	}
}

func TestCacheRuleTwoTrimsCurrentWindow(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 1, Weights: []float64{1, 1}, NQuad: 2}
	e := New(cfg)
	e.Record(Quadruplet{Event: 1000, Prev: 1, Next: 2, Sojourn: 1})
	e.Record(Quadruplet{Event: 2000, Prev: 1, Next: 2, Sojourn: 2})
	e.Record(Quadruplet{Event: 3000, Prev: 1, Next: 2, Sojourn: 3})
	// All three are inside the n=0 window at t=3000; rule (2) keeps NQuad.
	if e.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1 (oldest in saturated window)", e.Evicted())
	}
}

func TestHorizonEvictionOnRecord(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 1, Weights: []float64{1, 1}, NQuad: 100}
	e := New(cfg)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 5})
	// Horizon is t − (1·86400 + 3600) = t − 90000.
	e.Record(Quadruplet{Event: 100000, Prev: 1, Next: 2, Sojourn: 6})
	if e.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1 (past horizon)", e.Evicted())
	}
}

func TestEvictBeforeSweepsIdlePairs(t *testing.T) {
	e := stationary(100)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 5})
	e.Record(Quadruplet{Event: 1, Prev: 2, Next: 1, Sojourn: 6})
	e.EvictBefore(0.5)
	if e.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", e.Evicted())
	}
	if got := e.HandOffProb(10, 1, 0, 100, 2); got != 0 {
		t.Fatalf("swept sample still predicted: ph = %v", got)
	}
	if got := e.HandOffProb(10, 2, 0, 100, 1); got != 1 {
		t.Fatalf("surviving sample lost: ph = %v", got)
	}
}

func TestSweepAt(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 1, Weights: []float64{1, 1}, NQuad: 100}
	e := New(cfg)
	e.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 5})
	e.Record(Quadruplet{Event: 50000, Prev: 2, Next: 1, Sojourn: 6})
	// Horizon at t=120000 is 120000 − 90000 = 30000: only the first
	// quadruplet is out of date.
	e.SweepAt(120000)
	if e.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", e.Evicted())
	}
	// Infinite-Tint estimators never sweep (recency pruning suffices).
	inf := stationary(10)
	inf.Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: 5})
	inf.SweepAt(1e12)
	if inf.Evicted() != 0 {
		t.Fatal("infinite-Tint sweep evicted")
	}
}

func TestOutOfOrderRecordPanics(t *testing.T) {
	e := stationary(10)
	e.Record(Quadruplet{Event: 10, Prev: 1, Next: 2, Sojourn: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Record did not panic")
		}
	}()
	e.Record(Quadruplet{Event: 5, Prev: 1, Next: 2, Sojourn: 1})
}

func TestNegativeSojournPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative sojourn did not panic")
		}
	}()
	stationary(10).Record(Quadruplet{Event: 0, Prev: 1, Next: 2, Sojourn: -1})
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"stationary", StationaryConfig(), true},
		{"daily", DailyConfig(), true},
		{"zero Tint", Config{Tint: 0, NQuad: 10}, false},
		{"zero NQuad", Config{Tint: math.Inf(1), NQuad: 0}, false},
		{"finite Tint no period", Config{Tint: 100, NQuad: 10}, false},
		{"increasing weights", Config{Tint: 100, Period: 1000, NwinPeriods: 1, Weights: []float64{0.5, 1}, NQuad: 10}, false},
		{"weight above one", Config{Tint: 100, Period: 1000, NwinPeriods: 1, Weights: []float64{2, 1}, NQuad: 10}, false},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStaleIndexRebuild(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 0, Weights: []float64{1}, NQuad: 100, RebuildEvery: 0}
	e := New(cfg)
	e.Record(Quadruplet{Event: 1000, Prev: 1, Next: 2, Sojourn: 7})
	if got := e.HandOffProb(1500, 1, 0, 100, 2); got != 1 {
		t.Fatalf("in-window ph = %v, want 1", got)
	}
	// Four hours later the sample has slid out of the n=0 window.
	if got := e.HandOffProb(1000+4*3600, 1, 0, 100, 2); got != 0 {
		t.Fatalf("out-of-window ph = %v, want 0", got)
	}
}

func TestRebuildEveryStaleness(t *testing.T) {
	cfg := Config{Tint: 3600, Period: 86400, NwinPeriods: 0, Weights: []float64{1}, NQuad: 100, RebuildEvery: 10000}
	e := New(cfg)
	e.Record(Quadruplet{Event: 1000, Prev: 1, Next: 2, Sojourn: 7})
	if got := e.HandOffProb(1500, 1, 0, 100, 2); got != 1 {
		t.Fatal("in-window ph != 1")
	}
	// Within the staleness budget the stale index may still answer 1;
	// past it, the rebuild must happen. 1500 + 10001 > budget.
	if got := e.HandOffProb(1500+10001, 1, 0, 100, 2); got != 0 {
		t.Fatalf("ph after staleness budget = %v, want 0", got)
	}
}

// naiveProb recomputes Eq. 4 from the exposed selection, independently of
// the prefix-sum index.
func naiveProb(e *Estimator, t0 float64, prev topology.LocalIndex, extSoj, test float64, next topology.LocalIndex) float64 {
	sel := e.Selected(t0, prev)
	den, num := 0.0, 0.0
	for _, s := range sel {
		if s.Sojourn > extSoj {
			den += s.Weight
			if s.Next == next && s.Sojourn <= extSoj+test {
				num += s.Weight
			}
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Property: the indexed ph equals a naive recomputation over the
// selection, for random histories and queries.
func TestPropertyIndexedMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 1))
		e := stationary(50)
		n := 1 + r.IntN(300)
		for i := 0; i < n; i++ {
			e.Record(Quadruplet{
				Event:   float64(i),
				Prev:    topology.LocalIndex(r.IntN(3)),
				Next:    topology.LocalIndex(1 + r.IntN(4)),
				Sojourn: math.Floor(r.Float64()*50) / 2, // coarse grid → ties
			})
		}
		for q := 0; q < 40; q++ {
			prev := topology.LocalIndex(r.IntN(3))
			next := topology.LocalIndex(1 + r.IntN(4))
			extSoj := math.Floor(r.Float64()*60) / 2
			test := math.Floor(r.Float64() * 30)
			got := e.HandOffProb(float64(n), prev, extSoj, test, next)
			want := naiveProb(e, float64(n), prev, extSoj, test, next)
			if math.Abs(got-want) > 1e-9 {
				return false
			}
			if got < 0 || got > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ph is non-decreasing in Test and Σ_next ph ≤ 1.
func TestPropertyMonotoneInTest(t *testing.T) {
	f := func(seed uint64, extRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 2))
		e := stationary(100)
		n := 1 + r.IntN(200)
		for i := 0; i < n; i++ {
			e.Record(Quadruplet{
				Event: float64(i), Prev: 1,
				Next:    topology.LocalIndex(1 + r.IntN(3)),
				Sojourn: r.Float64() * 100,
			})
		}
		extSoj := float64(extRaw) / 2
		prevSum := -1.0
		for test := 1.0; test <= 128; test *= 2 {
			sum := 0.0
			last := map[topology.LocalIndex]float64{}
			for next := topology.LocalIndex(1); next <= 3; next++ {
				v := e.HandOffProb(float64(n), 1, extSoj, test, next)
				if v < last[next] { // per-next monotonicity across doublings
					return false
				}
				last[next] = v
				sum += v
			}
			if sum > 1+1e-9 || sum+1e-9 < prevSum {
				return false
			}
			prevSum = sum
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLastEvent pins the serializer-facing clock: LastEvent is the
// newest recorded event time (zero when empty), an eviction sweep
// leaves it alone, and Reset returns it to zero. A restored service
// resumes its simulation clock from it.
func TestLastEvent(t *testing.T) {
	e := New(DailyConfig())
	if got := e.LastEvent(); got != 0 {
		t.Fatalf("empty LastEvent = %v, want 0", got)
	}
	e.Record(Quadruplet{Event: 3600, Prev: 0, Next: 1, Sojourn: 5})
	e.Record(Quadruplet{Event: 2*86400 + 100, Prev: 0, Next: 1, Sojourn: 5})
	if got := e.LastEvent(); got != 2*86400+100 {
		t.Fatalf("LastEvent = %v, want the newest sample's time", got)
	}
	e.SweepAt(20 * 86400)
	if e.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", e.Evicted())
	}
	if got := e.LastEvent(); got != 2*86400+100 {
		t.Fatalf("LastEvent after sweep = %v, want %v", got, 2*86400+100)
	}
	e.Reset()
	if got := e.LastEvent(); got != 0 {
		t.Fatalf("LastEvent after Reset = %v, want 0", got)
	}
}

// TestGenerationEpochs pins the cache-epoch contract: Generation moves
// exactly when the selection backing queries may have changed — Record,
// an eviction that drops samples, and index rebuilds (including lazy
// window-shift rebuilds) — and holds still across pure queries.
func TestGenerationEpochs(t *testing.T) {
	e := stationary(100)
	g0 := e.Generation()
	e.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 10})
	if e.Generation() == g0 {
		t.Fatal("Record did not move the generation")
	}
	e.HandOffProb(5, 1, 0, 100, 2) // first query rebuilds the pair index
	g1 := e.Generation()
	e.HandOffProb(5, 1, 0, 100, 2)
	e.HandOffProb(7, 1, 3, 50, 2) // infinite Tint: selection is time-independent
	e.SurvivorWeight(9, 1, 0)
	e.HandOffWeight(9, 1, 2, 0, 100)
	if e.Generation() != g1 {
		t.Fatalf("pure queries moved the generation %d -> %d", g1, e.Generation())
	}
	e.EvictBefore(0.5) // drops nothing
	if e.Generation() != g1 {
		t.Fatal("no-op eviction moved the generation")
	}
	e.EvictBefore(2) // drops the only sample
	if e.Generation() == g1 {
		t.Fatal("eviction that dropped a sample kept the generation")
	}

	// Finite Tint: query-time drift past RebuildEvery is a window shift
	// and must show up as a new epoch on the next query.
	f := New(Config{Tint: 3600, Period: 86400, NwinPeriods: 0, Weights: []float64{1}, NQuad: 10, RebuildEvery: 100})
	f.Record(Quadruplet{Event: 1000, Prev: 1, Next: 2, Sojourn: 7})
	f.HandOffProb(1000, 1, 0, 50, 2)
	g2 := f.Generation()
	f.HandOffProb(1050, 1, 0, 50, 2) // within the staleness budget
	if f.Generation() != g2 {
		t.Fatal("in-budget query moved the generation")
	}
	f.HandOffProb(1500, 1, 0, 50, 2) // past the budget: rebuild
	if f.Generation() == g2 {
		t.Fatal("window shift past RebuildEvery kept the generation")
	}
}

// TestValidateWeightsLength: selection indexes Weights by window number,
// so a slice shorter than the windows is a config error, not a panic on
// the first query that reaches the missing window.
func TestValidateWeightsLength(t *testing.T) {
	daily := Config{Tint: 3600, Period: 86400, NwinPeriods: 2, NQuad: 10}
	for _, tc := range []struct {
		name    string
		cfg     Config
		weights []float64
		wantErr string
	}{
		{"windowed, too short", daily, []float64{1}, "1 weights for 3 windows"},
		{"windowed, exact", daily, []float64{1, 1, 0.5}, ""},
		{"windowed, nil means all ones", daily, nil, ""},
		{"stationary, empty", StationaryConfig(), []float64{}, "0 weights for 1 windows"},
		{"stationary, one", StationaryConfig(), []float64{0.7}, ""},
		{"stationary, nil means all ones", StationaryConfig(), nil, ""},
	} {
		tc.cfg.Weights = tc.weights
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
				continue
			}
			// The shape that used to panic: two records a day apart,
			// then a query whose second window is populated.
			e := New(tc.cfg)
			e.Record(Quadruplet{Event: 1000, Prev: 1, Next: 2, Sojourn: 5})
			e.Record(Quadruplet{Event: 1000 + 86400, Prev: 1, Next: 2, Sojourn: 9})
			if got := e.SelectedCount(1000 + 86400); got != 2 {
				t.Errorf("%s: %d samples selected, want 2", tc.name, got)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRecordRejectsBadLocalIndex(t *testing.T) {
	for _, q := range []Quadruplet{
		{Event: 0, Prev: -1, Next: 2, Sojourn: 1},
		{Event: 0, Prev: 1, Next: -2, Sojourn: 1},
		{Event: 0, Prev: 1 << 20, Next: 2, Sojourn: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Record(%+v) did not panic", q)
				}
			}()
			stationary(10).Record(q)
		}()
	}
}

func BenchmarkHandOffProbIndexed(b *testing.B) {
	e := stationary(100)
	r := rand.New(rand.NewPCG(3, 0))
	for i := 0; i < 1000; i++ {
		e.Record(Quadruplet{
			Event: float64(i), Prev: topology.LocalIndex(r.IntN(3)),
			Next: topology.LocalIndex(1 + r.IntN(6)), Sojourn: r.Float64() * 100,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HandOffProb(1000, 1, 20, 30, 2)
	}
}

// BenchmarkRecord measures the estimator's write path in steady state
// (every pair full, so each Record evicts) over pseudo-random sojourns —
// a constant sojourn would be the pre-sorted, selection-invisible best
// case. "stationary" is one in-place index update; "daily" is a Record
// under DailyConfig plus the query that pays for its windowed rebuild.
// Both must report 0 allocs/op: BENCH_admission.json pins their
// allocation profile, never their time.
func BenchmarkRecord(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"stationary", StationaryConfig()},
		{"daily", DailyConfig()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e := New(bc.cfg)
			r := rand.New(rand.NewPCG(13, 0))
			windowed := !math.IsInf(bc.cfg.Tint, 1)
			event := 0.0
			step := func() {
				prev, next := topology.LocalIndex(r.IntN(3)), topology.LocalIndex(1+r.IntN(2))
				e.Record(Quadruplet{Event: event, Prev: prev, Next: next, Sojourn: r.Float64() * 100})
				if windowed {
					e.HandOffWeight(event, prev, next, 20, 30)
				}
				event += 5 // 120 records per pair per hour: the n=0 window alone fills NQuad
			}
			for i := 0; i < 2000; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
