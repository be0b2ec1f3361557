// Package predict implements the paper's mobility estimation (§3): each
// base station caches a hand-off event quadruplet (T_event, prev, next,
// T_soj) for every mobile that hands off out of its cell, builds
// *hand-off estimation functions* from the quadruplets that fall within
// periodic daily windows, and answers Bayesian hand-off probability
// queries (Eq. 4):
//
//	p_h(C → next) = P(next cell = next, T_soj ≤ T_ext-soj + T_est | T_soj > T_ext-soj)
//
// All cell references are in the owning cell's *local* index space
// (topology.LocalIndex): prev/next are 0 for "this cell" (prev = 0 marks
// a connection born here) and 1..deg for neighbors.
//
// One Estimator serves one cell. Paper §3 keeps a second quadruplet set
// for weekends and holidays; every reported experiment runs weekdays
// only, so no such set is built. It is not safe for concurrent use.
package predict

import (
	"fmt"
	"math"
	"slices"

	"cellqos/internal/topology"
)

// Quadruplet is one observed hand-off departure (paper §3.1).
type Quadruplet struct {
	Event   float64             // T_event: when the mobile left this cell (s)
	Prev    topology.LocalIndex // cell the mobile came from (Self = born here)
	Next    topology.LocalIndex // cell the mobile entered (must be a neighbor)
	Sojourn float64             // T_soj: time spent in this cell (s)
}

// Config holds the estimation-function design parameters of §3.1.
type Config struct {
	// Tint is the estimation interval T_int: quadruplets within
	// [t0−T_int−n·Period, t0+T_int−n·Period) contribute with weight
	// Weights[n]. math.Inf(1) (the paper's stationary-scenario choice)
	// makes the single n=0 window cover all history.
	Tint float64
	// Period is the repeat of the mobility pattern, T_day (86400 s) in
	// the paper. Ignored when Tint is infinite.
	Period float64
	// NwinPeriods is N_win-days: quadruplets older than
	// NwinPeriods·Period + Tint are out of date.
	NwinPeriods int
	// Weights are w_0..w_NwinPeriods, non-increasing, w_0 ≤ 1. A nil
	// slice means all-ones.
	Weights []float64
	// NQuad caps the number of quadruplets used per (prev, next) pair
	// (the paper's N_quad, 100 in the experiments).
	NQuad int
	// RebuildEvery bounds index staleness for finite Tint: the windowed
	// sample selection is recomputed when the query time has advanced
	// more than this since the last rebuild (and always after Record).
	// Zero means rebuild on every query-time change. Irrelevant for
	// infinite Tint, where the selection only changes on Record.
	RebuildEvery float64
}

// Validate checks config invariants.
func (c Config) Validate() error {
	if c.Tint <= 0 {
		return fmt.Errorf("predict: Tint must be positive, got %v", c.Tint)
	}
	if c.NQuad < 1 {
		return fmt.Errorf("predict: NQuad must be ≥ 1, got %d", c.NQuad)
	}
	if !math.IsInf(c.Tint, 1) {
		if c.Period <= 0 {
			return fmt.Errorf("predict: finite Tint requires positive Period")
		}
		if c.NwinPeriods < 0 {
			return fmt.Errorf("predict: negative NwinPeriods")
		}
	}
	w := c.weights()
	if len(w) < c.windows() {
		return fmt.Errorf("predict: %d weights for %d windows (need w_0..w_NwinPeriods)", len(w), c.windows())
	}
	for n := 1; n < len(w); n++ {
		if w[n] > w[n-1] {
			return fmt.Errorf("predict: weights must be non-increasing, got %v", w)
		}
	}
	for _, v := range w {
		if v < 0 || v > 1 {
			return fmt.Errorf("predict: weights must lie in [0,1], got %v", w)
		}
	}
	return nil
}

// windows returns how many periodic windows selection indexes Weights
// by: n = 0..NwinPeriods, window 0 alone when Tint is infinite.
func (c Config) windows() int {
	if math.IsInf(c.Tint, 1) {
		return 1
	}
	return c.NwinPeriods + 1
}

// weights returns the effective weight vector (all ones when nil).
func (c Config) weights() []float64 {
	if c.Weights != nil {
		return c.Weights
	}
	w := make([]float64, c.windows())
	for i := range w {
		w[i] = 1
	}
	return w
}

// StationaryConfig is the configuration used for the paper's stationary
// experiments (§5.2): T_int = ∞, N_quad = 100.
func StationaryConfig() Config {
	return Config{Tint: math.Inf(1), NQuad: 100}
}

// DailyConfig is the §5.3 time-varying configuration: T_int = 1 h,
// N_win-days = 1, w_0 = w_1 = 1.
func DailyConfig() Config {
	return Config{
		Tint:         3600,
		Period:       86400,
		NwinPeriods:  1,
		Weights:      []float64{1, 1},
		NQuad:        100,
		RebuildEvery: 60,
	}
}

// searchEvent returns the first index in raw (sorted by event time) whose
// event is ≥ t.
func searchEvent(raw []sample, t float64) int {
	lo, hi := 0, len(raw)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if raw[mid].event < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sample is a cached quadruplet, reduced to what selection needs.
type sample struct {
	event, sojourn float64
}

// pairData is the cache and query index for one (prev, next) pair.
type pairData struct {
	raw []sample // ordered by event time (simulation time is monotone)

	// Index over the currently selected (windowed, weighted, capped)
	// samples: sojourn times ascending with aligned cumulative weights;
	// wCum[i] = Σ weight of sojSorted[0..i]. Built by rebuildPair on the
	// first query after the pair went dirty; a stationary Record keeps a
	// clean index current in place (replaceSelected).
	sojSorted []float64
	wCum      []float64

	// Per-pair index staleness: the selection is recomputed when dirty
	// (a Record or eviction touched raw) or, for finite T_int, when the
	// query time drifted past the staleness budget.
	dirty    bool
	builtAt  float64
	hasIndex bool
	maxSoj   float64 // largest selected sojourn

	// The sweep queries' cursors (SweepNext): where the pair's last
	// search at an extant sojourn (lo) and at extant sojourn + window
	// (hi) landed in sojSorted. They only say where the next search
	// starts; seek lands on firstAbove whatever they hold.
	lo, hi int32
}

// totalWeight is the selected weight mass of the pair.
func (p *pairData) totalWeight() float64 {
	if len(p.wCum) == 0 {
		return 0
	}
	return p.wCum[len(p.wCum)-1]
}

// firstAbove returns the first index in s (ascending) whose value is
// strictly greater than x. The binary search is hand-rolled: this is the
// innermost loop of every Eq. 4 evaluation and closure-based sort.Search
// shows up hot in profiles.
func firstAbove(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek returns firstAbove(s, x), starting from i, where the previous
// seek over s landed. Over a run of non-decreasing x the position only
// steps forward, once per sojourn it passes, so the run costs O(len(s))
// in all instead of a binary search per x; an x below s[i-1], or an i
// past the end of a selection that shrank since, takes the binary
// search.
func seek(s []float64, i int, x float64) int {
	if i > len(s) || i > 0 && s[i-1] > x {
		return firstAbove(s, x)
	}
	for i < len(s) && s[i] <= x {
		i++
	}
	return i
}

// weightAbove returns the selected weight with sojourn strictly greater
// than x.
func (p *pairData) weightAbove(x float64) float64 {
	return p.weightFrom(firstAbove(p.sojSorted, x))
}

// weightFrom returns the selected weight of sojSorted[lo:].
func (p *pairData) weightFrom(lo int) float64 {
	if lo == 0 {
		return p.totalWeight()
	}
	if lo >= len(p.sojSorted) {
		return 0
	}
	return p.totalWeight() - p.wCum[lo-1]
}

// sojournAt returns sojSorted[i], or +Inf past the end: the smallest
// selected sojourn strictly above x when i = firstAbove(sojSorted, x).
func (p *pairData) sojournAt(i int) float64 {
	if i >= len(p.sojSorted) {
		return math.Inf(1)
	}
	return p.sojSorted[i]
}

// weightIn returns the selected weight with sojourn in (lo, hi].
func (p *pairData) weightIn(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	return p.weightAbove(lo) - p.weightAbove(hi)
}

// replaceSelected brings a stationary pair's index up to date with one
// Record: the evicted sojourn (when the pair was full) leaves sojSorted,
// the new one enters, and maxSoj follows the last element. The result is
// bit-for-bit what rebuildPair would build from the new raw: the
// selection is the multiset of raw's sojourns, so which of several equal
// values is removed or where among them the new one lands cannot be
// told apart, and with the single uniform weight w0 the prefix sums are
// a function of position alone — wCum[i] is w0 added i+1 times, the same
// repeated addition rebuildPair performs — so a full pair keeps its
// table and a growing one appends the next term.
func (p *pairData) replaceSelected(evicted float64, full bool, soj, w0 float64) {
	s := p.sojSorted
	if full {
		i := firstAbove(s, evicted) - 1 // the last sojourn equal to evicted
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
	} else {
		p.wCum = append(p.wCum, p.totalWeight()+w0)
	}
	j := firstAbove(s, soj)
	s = append(s, 0)
	copy(s[j+1:], s[j:])
	s[j] = soj
	p.sojSorted = s
	p.maxSoj = s[len(s)-1]
}

// maxLocalIndex bounds the local indices an Estimator accepts. Cell
// degrees are single digits; the bound only exists so the dense
// per-index tables cannot be grown without limit by corrupt persisted
// input.
const maxLocalIndex = 1 << 12

// prevGroup holds every pair sharing one prev, in first-Record order —
// the iteration order of the Eq. 4 denominator sum, which must stay
// stable so repeated queries produce bit-identical floats.
type prevGroup struct {
	pairs  []*pairData
	nexts  []topology.LocalIndex // aligned with pairs
	byNext []*pairData           // dense by int(next); nil = pair never seen
}

// Estimator accumulates quadruplets and answers Eq. 4 queries for one cell.
type Estimator struct {
	cfg     Config
	weights []float64
	// Dense pair tables (local indices are tiny): prevs is indexed by
	// int(prev), allPairs lists every pair in first-Record order.
	// No maps on the query path — lookups are two slice indexings.
	prevs    []*prevGroup
	allPairs []*pairData

	// gen is the cache epoch: it advances whenever the selection backing
	// probability queries may have changed — on Record, on an eviction
	// that dropped samples, and on every per-pair index rebuild
	// (including lazy rebuilds triggered by query-time drift past
	// RebuildEvery, the "window shift"). Callers that memoize derived
	// values key them on Generation and recompute on mismatch.
	gen uint64

	recorded  uint64 // total quadruplets ever recorded
	evicted   uint64 // total quadruplets dropped from the cache
	lastEvent float64

	// rebuildPair's working storage, kept across calls so a rebuild
	// allocates nothing once the buffers have grown to NQuad.
	sel   []weightedSoj
	cands []windowCand
}

// weightedSoj is one selected sample inside rebuildPair: a sojourn and
// the weight of the window that selected it.
type weightedSoj struct{ soj, w float64 }

// windowCand is one in-window sample inside rebuildPair, with its
// distance from the window's centre (the second-level priority).
type windowCand struct{ dist, soj float64 }

// New builds an Estimator; it panics on invalid config (programmer error).
func New(cfg Config) *Estimator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Estimator{
		cfg:     cfg,
		weights: cfg.weights(),
	}
}

// group returns the prev's pair group, nil when prev was never recorded.
func (e *Estimator) group(prev topology.LocalIndex) *prevGroup {
	if prev < 0 || int(prev) >= len(e.prevs) {
		return nil
	}
	return e.prevs[prev]
}

// pair returns the (prev, next) pair, nil when it was never recorded.
func (e *Estimator) pair(prev, next topology.LocalIndex) *pairData {
	g := e.group(prev)
	if g == nil || next < 0 || int(next) >= len(g.byNext) {
		return nil
	}
	return g.byNext[next]
}

// addPair registers a new (prev, next) pair in the dense tables. Callers
// validate the index range first.
func (e *Estimator) addPair(prev, next topology.LocalIndex) *pairData {
	for int(prev) >= len(e.prevs) {
		e.prevs = append(e.prevs, nil)
	}
	g := e.prevs[prev]
	if g == nil {
		g = &prevGroup{}
		e.prevs[prev] = g
	}
	for int(next) >= len(g.byNext) {
		g.byNext = append(g.byNext, nil)
	}
	p := &pairData{}
	g.byNext[next] = p
	g.pairs = append(g.pairs, p)
	g.nexts = append(g.nexts, next)
	e.allPairs = append(e.allPairs, p)
	return p
}

// Generation returns the estimator's cache epoch. Two queries bracketed
// by equal Generation values (at the same query time) are backed by the
// same sample selection; a caller-side cache of derived results is
// invalidated exactly when the epoch moves.
func (e *Estimator) Generation() uint64 { return e.gen }

// Recorded returns the number of quadruplets ever recorded.
func (e *Estimator) Recorded() uint64 { return e.recorded }

// LastEvent returns the event time of the newest quadruplet ever
// recorded (or restored), zero when there is none. A service restoring
// from a checkpoint resumes its simulation clock at or after this
// instant so Record's event-order invariant holds across the restart.
func (e *Estimator) LastEvent() float64 { return e.lastEvent }

// Reset discards all recorded history and counters, returning the
// estimator to its freshly-constructed state with the same
// configuration. The generation advances so generation-keyed caches
// invalidate; it never rolls back. Reset-then-ReadFrom is the
// replace-on-restore mode for an estimator that already holds samples.
func (e *Estimator) Reset() {
	e.prevs = nil
	e.allPairs = nil
	e.recorded = 0
	e.evicted = 0
	e.lastEvent = 0
	e.gen++
}

// Evicted returns the number of quadruplets dropped by cache management.
func (e *Estimator) Evicted() uint64 { return e.evicted }

// Record caches a hand-off event quadruplet. Events must arrive in
// non-decreasing T_event order (simulation time is monotone); Record
// panics otherwise, and on negative sojourns. Every Record moves the
// generation.
//
// The stationary path (infinite T_int) leaves the pair's selection
// current when it returns, since that selection is query-time-independent:
// an index already in step with the cache is updated in place, anything
// else — a first record, a pair left dirty by ReadFrom or EvictBefore, a
// restored pair longer than N_quad — is rebuilt, so the next Record into
// the pair takes the in-place path.
func (e *Estimator) Record(q Quadruplet) {
	if q.Sojourn < 0 || math.IsNaN(q.Sojourn) {
		panic(fmt.Sprintf("predict: bad sojourn %v", q.Sojourn))
	}
	if q.Event < e.lastEvent {
		panic(fmt.Sprintf("predict: out-of-order event %v after %v", q.Event, e.lastEvent))
	}
	if q.Prev < 0 || q.Next < 0 || q.Prev >= maxLocalIndex || q.Next >= maxLocalIndex {
		panic(fmt.Sprintf("predict: local index out of range in quadruplet (prev %d, next %d)", q.Prev, q.Next))
	}
	e.lastEvent = q.Event
	p := e.pair(q.Prev, q.Next)
	if p == nil {
		p = e.addPair(q.Prev, q.Next)
	}
	stationary := math.IsInf(e.cfg.Tint, 1)
	// A stationary selection is the pair's newest NQuad sojourns: the
	// append below evicts exactly p.raw[0] from a full pair.
	n := len(p.raw)
	full := stationary && n == e.cfg.NQuad
	evicted := 0.0
	if full {
		evicted = p.raw[0].sojourn
	}
	inStep := p.hasIndex && !p.dirty && len(p.sojSorted) == n && n <= e.cfg.NQuad
	p.raw = append(p.raw, sample{event: q.Event, sojourn: q.Sojourn})
	e.recorded++
	e.prune(p, q.Event)
	e.gen++
	switch {
	case !stationary:
		p.dirty = true
	case inStep:
		p.replaceSelected(evicted, full, q.Sojourn, e.weights[0])
	default:
		e.rebuildPair(p, q.Event)
	}
}

// prune applies the paper's cache-management rules to one pair at the
// current time t: (1) drop quadruplets past the retention horizon
// (older than N_win·Period + T_int); (2) if the n=0 window alone already
// holds more than N_quad samples, drop the oldest ones in it — "they are
// unlikely to be used for the hand-off estimation function next day".
func (e *Estimator) prune(p *pairData, t float64) {
	if math.IsInf(e.cfg.Tint, 1) {
		// Priority within the single infinite window is recency, so only
		// the newest NQuad can ever be selected.
		if excess := len(p.raw) - e.cfg.NQuad; excess > 0 {
			p.raw = append(p.raw[:0], p.raw[excess:]...)
			e.evicted += uint64(excess)
		}
		return
	}
	horizon := t - (float64(e.cfg.NwinPeriods)*e.cfg.Period + e.cfg.Tint)
	drop := 0
	for drop < len(p.raw) && p.raw[drop].event < horizon {
		drop++
	}
	if drop > 0 {
		p.raw = append(p.raw[:0], p.raw[drop:]...)
		e.evicted += uint64(drop)
	}
	// Rule (2): count samples inside the current n=0 window [t−Tint, t].
	lo := t - e.cfg.Tint
	i := searchEvent(p.raw, lo)
	if inWin := len(p.raw) - i; inWin > e.cfg.NQuad {
		excess := inWin - e.cfg.NQuad
		p.raw = append(p.raw[:i], p.raw[i+excess:]...)
		e.evicted += uint64(excess)
	}
}

// EvictBefore drops every cached quadruplet with event time before t.
// The per-Record pruning only touches the pair being appended to; this
// sweep lets the owner reclaim long-idle pairs (the paper's rule that
// quadruplets unused for more than T_day + T_int may be deleted).
func (e *Estimator) EvictBefore(t float64) {
	dropped := false
	for _, p := range e.allPairs {
		drop := 0
		for drop < len(p.raw) && p.raw[drop].event < t {
			drop++
		}
		if drop > 0 {
			p.raw = append(p.raw[:0], p.raw[drop:]...)
			e.evicted += uint64(drop)
			p.dirty = true
			dropped = true
		}
	}
	if dropped {
		e.gen++
	}
}

// SweepAt drops every quadruplet that can no longer fall inside any
// window at or after time t (older than N_win·Period + T_int) — the
// paper's rule that out-of-date quadruplets "can be deleted from the
// cache memory". No-op for infinite T_int, where per-Record pruning
// already bounds the cache.
func (e *Estimator) SweepAt(t float64) {
	if math.IsInf(e.cfg.Tint, 1) {
		return
	}
	e.EvictBefore(t - (float64(e.cfg.NwinPeriods)*e.cfg.Period + e.cfg.Tint))
}

// ensurePair rebuilds one pair's windowed selection for query time t0 if
// it is missing or stale. Per-pair laziness keeps the common path — many
// probability queries between occasional Records — cheap.
func (e *Estimator) ensurePair(p *pairData, t0 float64) {
	if p.hasIndex && !p.dirty {
		if math.IsInf(e.cfg.Tint, 1) {
			return // selection is time-independent between Records
		}
		if math.Abs(t0-p.builtAt) <= e.cfg.RebuildEvery {
			return
		}
	}
	e.rebuildPair(p, t0)
}

// ensurePrev refreshes every pair reachable from prev.
func (e *Estimator) ensurePrev(prev topology.LocalIndex, t0 float64) {
	if g := e.group(prev); g != nil {
		for _, p := range g.pairs {
			e.ensurePair(p, t0)
		}
	}
}

// ensureAll refreshes every pair.
func (e *Estimator) ensureAll(t0 float64) {
	for _, p := range e.allPairs {
		e.ensurePair(p, t0)
	}
}

// rebuildPair recomputes one pair's capped weighted sample selection of
// §3.1 at query time t0, then the sorted prefix-sum index used by
// probability queries.
func (e *Estimator) rebuildPair(p *pairData, t0 float64) {
	e.gen++ // the selection (and its prefix-sum table) changes here
	p.builtAt = t0
	p.hasIndex = true
	p.dirty = false
	p.maxSoj = 0
	sel := e.sel[:0]
	{
		if math.IsInf(e.cfg.Tint, 1) {
			// Single window, unit weight, newest-first priority; prune
			// already capped raw at NQuad.
			for _, s := range p.raw {
				sel = append(sel, weightedSoj{s.sojourn, e.weights[0]})
			}
		} else {
			// Fill windows n = 0, 1, ... in priority order until NQuad.
			cands := e.cands
			room := e.cfg.NQuad
			for n := 0; n <= e.cfg.NwinPeriods && room > 0; n++ {
				w := e.weights[n]
				if w == 0 {
					continue
				}
				center := t0 - float64(n)*e.cfg.Period
				lo := t0 - e.cfg.Tint - float64(n)*e.cfg.Period
				hi := t0 + e.cfg.Tint - float64(n)*e.cfg.Period
				i := searchEvent(p.raw, lo)
				cands = cands[:0]
				for ; i < len(p.raw) && p.raw[i].event < hi; i++ {
					s := p.raw[i]
					if s.event > t0 { // future events cannot exist, but guard
						break
					}
					cands = append(cands, windowCand{dist: math.Abs(s.event - center), soj: s.sojourn})
				}
				// Second-level priority: smaller |T_event − (t0 − n·T_day)|,
				// i.e. closest to the same time-of-day, first.
				slices.SortFunc(cands, func(a, b windowCand) int {
					switch {
					case a.dist < b.dist:
						return -1
					case a.dist > b.dist:
						return 1
					default:
						return 0
					}
				})
				for _, c := range cands {
					if room == 0 {
						break
					}
					sel = append(sel, weightedSoj{c.soj, w})
					room--
				}
			}
			e.cands = cands
		}
	}
	e.sel = sel
	// Build the sorted sojourn index with cumulative weights.
	slices.SortFunc(sel, func(a, b weightedSoj) int {
		switch {
		case a.soj < b.soj:
			return -1
		case a.soj > b.soj:
			return 1
		default:
			return 0
		}
	})
	p.sojSorted = p.sojSorted[:0]
	p.wCum = p.wCum[:0]
	cum := 0.0
	for _, s := range sel {
		cum += s.w
		p.sojSorted = append(p.sojSorted, s.soj)
		p.wCum = append(p.wCum, cum)
	}
	if len(sel) > 0 {
		p.maxSoj = p.sojSorted[len(p.sojSorted)-1]
	}
}

// HandOffProb evaluates Eq. 4: the probability that a connection that
// entered this cell from prev, with extant sojourn time extSoj, hands off
// into next within test seconds. It returns 0 (estimated stationary)
// when no selected quadruplet from prev has a sojourn exceeding extSoj.
func (e *Estimator) HandOffProb(t0 float64, prev topology.LocalIndex, extSoj, test float64, next topology.LocalIndex) float64 {
	den := e.SurvivorWeight(t0, prev, extSoj)
	if den == 0 {
		return 0
	}
	num := e.pair(prev, next)
	if num == nil {
		return 0
	}
	return num.weightIn(extSoj, extSoj+test) / den
}

// SurvivorWeight returns the Eq. 4 denominator: the total selected
// weight from prev whose sojourn strictly exceeds extSoj, at query time
// t0 (summed in first-Record pair order, the order every probability
// query uses). Splitting the denominator out lets a caller evaluating
// many (next, toward) queries for one connection pay for it once.
func (e *Estimator) SurvivorWeight(t0 float64, prev topology.LocalIndex, extSoj float64) float64 {
	den, _ := e.SurvivorWeightNext(t0, prev, extSoj)
	return den
}

// SurvivorWeightNext is SurvivorWeight that also returns next, the
// smallest selected sojourn from prev strictly above extSoj (+Inf when
// none). Every Eq. 4 query from prev is a step function of the extant
// sojourn whose steps lie on the group's selected sojourns: for any x
// in [extSoj, next) the binary searches at x land on the same indices,
// so the denominator and the lower edge of every numerator and of
// SojournProb from prev keep their values. next is read off the
// searches the sum already makes, one load per pair.
func (e *Estimator) SurvivorWeightNext(t0 float64, prev topology.LocalIndex, extSoj float64) (den, next float64) {
	e.ensurePrev(prev, t0)
	next = math.Inf(1)
	g := e.group(prev)
	if g == nil {
		return 0, next
	}
	for _, p := range g.pairs {
		i := firstAbove(p.sojSorted, extSoj)
		den += p.weightFrom(i)
		next = min(next, p.sojournAt(i))
	}
	return den, next
}

// HandOffWeight returns the Eq. 4 numerator for (prev, next): the
// selected weight with sojourn in (extSoj, extSoj+test]. Dividing by
// SurvivorWeight at the same arguments yields HandOffProb exactly.
func (e *Estimator) HandOffWeight(t0 float64, prev, next topology.LocalIndex, extSoj, test float64) float64 {
	w, _ := e.HandOffWeightNext(t0, prev, next, extSoj, test)
	return w
}

// HandOffWeightNext is HandOffWeight that also returns hi, the pair's
// smallest selected sojourn strictly above extSoj+test (+Inf when none,
// or when the pair was never seen): the numerator's upper edge keeps its
// index for every upper edge in [extSoj+test, hi). Its lower edge is
// bounded by SurvivorWeightNext's next.
func (e *Estimator) HandOffWeightNext(t0 float64, prev, next topology.LocalIndex, extSoj, test float64) (w, hi float64) {
	p := e.pair(prev, next)
	if p == nil {
		return 0, math.Inf(1)
	}
	// Only this pair's selection feeds the numerator, so only it needs
	// refreshing — the caller's SurvivorWeight already walked the whole
	// group, and re-walking it here would double the per-query ensure
	// cost on the hot single-direction path.
	e.ensurePair(p, t0)
	up := extSoj + test
	j := firstAbove(p.sojSorted, up)
	if up <= extSoj {
		return 0, p.sojournAt(j) // weightIn's empty interval
	}
	return p.weightAbove(extSoj) - p.weightFrom(j), p.sojournAt(j)
}

// SweepNext answers SurvivorWeightNext(t0, prev, extSoj) as (den, lo)
// and HandOffWeightNext(t0, prev, next, extSoj, test) as (w, hi) in one
// call, bit for bit, where t0 is the time of the last EnsureCurrent: it
// refreshes no selection, so the caller pins the estimator first and
// calls nothing that bumps the generation in between. Each pair's
// search starts from where the pair's previous sweep query left it (see
// seek): a caller that visits its connections in non-decreasing extant
// sojourn — core's Eq. 5 view, youngest connection first — merges the
// group's selected sojourns once per sweep instead of binary searching
// them per connection. Any order gives the same answers.
func (e *Estimator) SweepNext(prev, next topology.LocalIndex, extSoj, test float64) (den, lo, w, hi float64) {
	lo = math.Inf(1)
	g := e.group(prev)
	if g == nil {
		return 0, lo, 0, lo
	}
	for _, p := range g.pairs {
		i := seek(p.sojSorted, int(p.lo), extSoj)
		p.lo = int32(i)
		den += p.weightFrom(i)
		lo = min(lo, p.sojournAt(i))
	}
	w, hi = g.sweepHandOff(next, extSoj, test)
	return den, lo, w, hi
}

// SweepHandOffNext is SweepNext's (w, hi) alone: HandOffWeightNext(t0,
// prev, next, extSoj, test) bit for bit, under SweepNext's contract,
// for a caller that holds the denominator already.
func (e *Estimator) SweepHandOffNext(prev, next topology.LocalIndex, extSoj, test float64) (w, hi float64) {
	g := e.group(prev)
	if g == nil {
		return 0, math.Inf(1)
	}
	return g.sweepHandOff(next, extSoj, test)
}

// sweepHandOff is HandOffWeightNext's arithmetic on the (prev, next)
// pair's cursors.
func (g *prevGroup) sweepHandOff(next topology.LocalIndex, extSoj, test float64) (w, hi float64) {
	if next < 0 || int(next) >= len(g.byNext) || g.byNext[next] == nil {
		return 0, math.Inf(1)
	}
	p := g.byNext[next]
	up := extSoj + test
	j := seek(p.sojSorted, int(p.hi), up)
	p.hi = int32(j)
	if up <= extSoj {
		return 0, p.sojournAt(j) // weightIn's empty interval
	}
	i := seek(p.sojSorted, int(p.lo), extSoj)
	p.lo = int32(i)
	return p.weightFrom(i) - p.weightFrom(j), p.sojournAt(j)
}

// SojournProb evaluates the conditional sojourn distribution for a
// mobile whose next cell is already known (the paper's §7 ITS/GPS
// extension: "the mobility estimation function is used to estimate the
// sojourn time of a mobile only"): P(T_soj ≤ extSoj + test | T_soj >
// extSoj) over the (prev, next) pair's samples, falling back to the
// prev-marginal distribution when that pair has no usable history.
func (e *Estimator) SojournProb(t0 float64, prev, next topology.LocalIndex, extSoj, test float64) float64 {
	e.ensurePrev(prev, t0)
	if p := e.pair(prev, next); p != nil {
		if den := p.weightAbove(extSoj); den > 0 {
			return p.weightIn(extSoj, extSoj+test) / den
		}
	}
	g := e.group(prev)
	if g == nil {
		return 0
	}
	den, num := 0.0, 0.0
	for _, p := range g.pairs {
		den += p.weightAbove(extSoj)
		num += p.weightIn(extSoj, extSoj+test)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// MaxSojourn returns the largest sojourn among currently selected
// quadruplets (the paper's T_soj,max ingredient for capping T_est).
// Zero when the estimator has no usable samples.
func (e *Estimator) MaxSojourn(t0 float64) float64 {
	e.ensureAll(t0)
	max := 0.0
	for _, p := range e.allPairs {
		if p.maxSoj > max {
			max = p.maxSoj
		}
	}
	return max
}

// EnsureCurrent refreshes every pair's windowed selection for query time
// t0 and returns the resulting generation. It is the synchronization
// point for callers that maintain state derived incrementally from the
// selection (core's materialized Eq. 5 view): after EnsureCurrent(t0)
// returns, no further query at the same t0 can trigger a lazy rebuild,
// so the returned generation is stable for the rest of the caller's
// work at t0. A caller compares it against the generation its derived
// state was built under and falls back to a full rebuild on mismatch.
func (e *Estimator) EnsureCurrent(t0 float64) uint64 {
	e.ensureAll(t0)
	return e.gen
}
