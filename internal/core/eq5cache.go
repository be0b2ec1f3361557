package core

import (
	"math"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// eq5Cache maintains the Eq. 5 state of one engine as a materialized
// view: per-connection base state (extant sojourn, Eq. 4 denominator or
// hinted sojourn probability), per-direction term columns, and
// per-direction sums, updated by deltas as events arrive instead of
// recomputed per query. The admission fast path advances `now` on every
// burst, so a memo keyed on an exact (now, test, generation) triple
// pays a full Eq. 4 walk per burst; the view instead *advances* across
// timestamps with one scan of its guards — two float comparisons per
// live connection — and refreshes only the connections whose Eq. 4
// queries actually change value.
//
// Everything here must stay bit-exact with the retained from-scratch
// walk (eq5Scratch): the golden corpus pins simulation bytes, and float
// addition is not associative. The rules that keep it exact:
//
//   - Eq. 4 queries are piecewise-constant step functions of the extant
//     sojourn: every query reduces to binary searches over the selected
//     sojourn times of the connection's prev-group, so the cached
//     values stay bit-identical while the (clamped) extant sojourn and
//     its +test edge stay inside the same inter-breakpoint intervals.
//     Each connection carries the next breakpoint past each edge
//     (nextLo/nextHi); staleness is evaluated with the *same float
//     expressions* the estimator's binary searches consume (ext :=
//     now − enteredAt clamped; ext+test), so there is no ulp hazard.
//   - The estimator generation is the other invalidation axis: the view
//     is built under predict.EnsureCurrent(now) — after which no lazy
//     selection rebuild can fire at that timestamp — and any later
//     generation mismatch (Record, eviction, windowed-selection drift,
//     ReadFrom) forces a full rebuild.
//   - Per-direction sums always accumulate over the term columns in
//     table order, the order the from-scratch walk uses. Sums are never
//     patched by subtraction: removal swap-moves the per-connection
//     state exactly like the connection table and re-accumulates;
//     addition appends at the end of the table, where extending a live
//     sum equals a from-scratch recomputation.
//
// The buffers are reused across rebuilds, so steady state — advances,
// refreshes, extends, removes, queries — is allocation-free.
type eq5Cache struct {
	valid  bool
	now    float64
	test   float64
	est    *predict.Estimator
	estGen uint64

	// Per-connection base state aligned with Engine.conns: ext is the
	// clamped extant sojourn *as of the last base computation* (kept
	// deliberately stale across advances while the guards below hold —
	// the binary searches land on the same indices, so every derived
	// value is bit-identical); den the Eq. 4 denominator (survivor
	// weight) for hint-less connections; hintP the §7 sojourn
	// probability for hinted connections.
	ext   []float64
	den   []float64
	hintP []float64

	// Staleness guards: the base state of connection i is valid at a
	// later timestamp while
	//
	//	extNew < nextLo[i] && extNew+test < nextHi[i]
	//
	// where extNew is computed exactly as eq5Base computes it. nextLo
	// is the smallest selected sojourn of the connection's prev-group
	// strictly above the ext the state was computed at; nextHi the
	// smallest strictly above ext+test. +Inf when no breakpoint remains.
	nextLo []float64
	nextHi []float64

	// terms[t][i] is connection i's Eq. 5 term toward direction t;
	// termsDone[t] marks columns that are materialized for the current
	// table. done[t] marks directions whose sum is accumulated (done[t]
	// implies termsDone[t]). Advances and removals clear done only —
	// the cached terms stay valid per connection and sums are lazily
	// re-accumulated in table order.
	terms     [][]float64
	termsDone []bool
	sums      []float64
	done      []bool

	// Per-prev sorted sojourn-breakpoint tables used to compute the
	// guards, built lazily per (estimator, generation).
	bps    [][]float64
	bpsOK  []bool
	bpsEst *predict.Estimator
	bpsGen uint64

	hits, misses uint64 // per-query accounting, exposed via Eq5CacheStats

	// Materialized-view event accounting, exposed via the engine Ledger.
	rebuilds  uint64 // full from-scratch view rebuilds
	advances  uint64 // timestamp advances served incrementally
	refreshes uint64 // per-connection base-state refreshes during advances
}

// invalidate discards the view (buffers are kept for reuse).
func (c *eq5Cache) invalidate() { c.valid = false }

// grow returns f resized to n without reallocating when capacity allows.
func grow(f []float64, n int) []float64 {
	if cap(f) < n {
		return make([]float64, n)
	}
	return f[:n]
}

// growBool returns b resized to n, cleared to false.
func growBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// nextAbove returns the smallest value in the sorted slice s strictly
// greater than x, or +Inf when none exists. The search mirrors
// predict's weightAbove binary search, so a guard computed from it
// expires exactly when the estimator's searches would land on a
// different index.
func nextAbove(s []float64, x float64) float64 {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) {
		return math.Inf(1)
	}
	return s[lo]
}

// eq5Current reports whether the live view answers for (now, test, est),
// advancing it across a timestamp change when the per-connection guards
// allow. On false the caller performs a full rebuild. Called under the
// engine lock.
func (e *Engine) eq5Current(now, test float64, est *predict.Estimator) bool {
	c := &e.eq5
	if !c.valid || c.test != test || c.est != est {
		return false
	}
	if c.now == now {
		// Same timestamp, but the estimator may have moved underneath —
		// a Record landing between two queries at equal now.
		return est.Generation() == c.estGen
	}
	return e.eq5Advance(now, est)
}

// eq5Advance moves the view from c.now to a later now. The estimator is
// pinned first (EnsureCurrent): if its generation moved — a Record, an
// eviction, or a windowed-selection drift rebuild at the new timestamp —
// the cached terms were computed against a dead selection and the view
// must be rebuilt from scratch. Otherwise every connection's guards are
// checked with the exact float expressions the estimator's binary
// searches consume; connections whose extant sojourn crossed a
// breakpoint get their base state, guards, and materialized term
// columns refreshed, and the direction sums are lazily re-accumulated.
// When no guard expired the finished sums remain valid as-is: every
// cached term is bit-identical to the from-scratch term at the new
// timestamp. Called under the engine lock.
func (e *Engine) eq5Advance(now float64, est *predict.Estimator) bool {
	c := &e.eq5
	if now < c.now {
		return false // time went backwards: not an advance
	}
	if est.EnsureCurrent(now) != c.estGen {
		return false
	}
	c.advances++
	c.now = now
	refreshed := false
	// Scan the view's own table, not the engine's: during eq5Extend the
	// engine table has already grown by the appended connection, which
	// the view incorporates only after the advance.
	for i := range c.ext {
		if !e.eq5GuardAt(i, now) {
			e.eq5Refresh(i)
			refreshed = true
		}
	}
	if refreshed {
		for t := range c.done {
			c.done[t] = false
		}
	}
	return true
}

// eq5GuardAt reports whether connection i's cached guards hold at
// timestamp t, using the exact float expressions the estimator's binary
// searches consume.
func (e *Engine) eq5GuardAt(i int, t float64) bool {
	c := &e.eq5
	ext := t - e.conns[i].enteredAt
	if ext < 0 {
		ext = 0
	}
	return ext < c.nextLo[i] && ext+c.test < c.nextHi[i]
}

// eq5Refresh recomputes one connection's base state, guards, and any
// materialized term-column entries at the view's current timestamp.
// The caller clears the direction sums. Called under the engine lock.
func (e *Engine) eq5Refresh(i int) {
	c := &e.eq5
	c.refreshes++
	e.eq5Base(i)
	e.eq5Guards(i)
	for t := 1; t < len(c.termsDone); t++ {
		if c.termsDone[t] {
			c.terms[t][i] = e.eq5Term(i, topology.LocalIndex(t))
		}
	}
}

// eq5Rebuild builds the view from scratch for (now, test, est) and
// answers the requesting direction in one fused walk: each connection's
// base state and guards are computed and its term toward the requested
// direction materialized and accumulated immediately, so a key queried
// exactly once costs a single pass over the table like the from-scratch
// walk. The estimator is pinned with EnsureCurrent before the walk, so
// no lazy selection rebuild can move the generation mid-build. Called
// under the engine lock.
func (e *Engine) eq5Rebuild(now, test float64, est *predict.Estimator, toward topology.LocalIndex) float64 {
	c := &e.eq5
	c.rebuilds++
	c.valid = true
	c.now, c.test, c.est = now, test, est
	c.estGen = est.EnsureCurrent(now)
	if c.bpsEst != est || c.bpsGen != c.estGen {
		c.bpsEst, c.bpsGen = est, c.estGen
		for p := range c.bpsOK {
			c.bpsOK[p] = false
		}
	}
	n := len(e.conns)
	c.ext = grow(c.ext, n)
	c.den = grow(c.den, n)
	c.hintP = grow(c.hintP, n)
	c.nextLo = grow(c.nextLo, n)
	c.nextHi = grow(c.nextHi, n)
	d := e.cfg.Degree + 1
	c.sums = grow(c.sums, d)
	c.done = growBool(c.done, d)
	c.termsDone = growBool(c.termsDone, d)
	for len(c.terms) < d {
		c.terms = append(c.terms, nil)
	}
	c.terms = c.terms[:d]
	t := int(toward)
	var col []float64
	if t >= 1 && t < d {
		c.terms[t] = grow(c.terms[t], n)
		col = c.terms[t]
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		e.eq5Base(i)
		e.eq5Guards(i)
		v := e.eq5Term(i, toward)
		if col != nil {
			col[i] = v
		}
		sum += v
	}
	if col != nil {
		c.sums[t] = sum
		c.done[t] = true
		c.termsDone[t] = true
	}
	return sum
}

// eq5Base fills the cached per-connection base state for table slot i
// at the view's current timestamp.
func (e *Engine) eq5Base(i int) {
	c := &e.eq5
	cn := &e.conns[i]
	ext := c.now - cn.enteredAt
	if ext < 0 {
		ext = 0
	}
	c.ext[i] = ext
	if cn.hint != NoHint {
		c.den[i] = 0
		c.hintP[i] = c.est.SojournProb(c.now, cn.prev, cn.hint, ext, c.test)
		return
	}
	c.hintP[i] = 0
	c.den[i] = c.est.SurvivorWeight(c.now, cn.prev, ext)
}

// eq5Guards recomputes connection i's staleness guards from its
// prev-group's breakpoint table. Fresh guards hold strictly at the
// view's timestamp (nextAbove is strictly above both edges), which is
// what verifyEq5Locked checks after every advance. Must run after
// eq5Base (it reads the ext the base state was computed at).
func (e *Engine) eq5Guards(i int) {
	c := &e.eq5
	bp := e.eq5Breakpoints(e.conns[i].prev)
	c.nextLo[i] = nextAbove(bp, c.ext[i])
	c.nextHi[i] = nextAbove(bp, c.ext[i]+c.test)
}

// eq5Breakpoints returns the sorted sojourn breakpoints of one
// prev-group at the current (estimator, generation), building the table
// lazily. The group table covers every Eq. 4 query a connection from
// that prev can issue: the group selection is the union of its pairs'
// selections, so pair numerators, the group denominator, hinted sojourn
// probabilities, and the hinted pair→group-marginal fallback flip all
// change value only at these points.
func (e *Engine) eq5Breakpoints(prev topology.LocalIndex) []float64 {
	c := &e.eq5
	p := int(prev)
	for p >= len(c.bps) {
		c.bps = append(c.bps, nil)
		c.bpsOK = append(c.bpsOK, false)
	}
	if !c.bpsOK[p] {
		c.bps[p] = c.est.AppendSojournBreakpoints(c.bps[p][:0], c.now, prev)
		c.bpsOK[p] = true
	}
	return c.bps[p]
}

// eq5Term returns connection i's Eq. 5 term toward one direction, from
// the cached base state — bit-identical to the from-scratch term while
// the guards hold.
func (e *Engine) eq5Term(i int, toward topology.LocalIndex) float64 {
	c := &e.eq5
	cn := &e.conns[i]
	b := float64(cn.min)
	if cn.hint != NoHint {
		if cn.hint == toward {
			return b * c.hintP[i]
		}
		return 0
	}
	p := 0.0
	if c.den[i] != 0 {
		// A never-seen (prev, toward) pair yields weight 0 and p = +0,
		// exactly like the scalar HandOffProb query.
		p = c.est.HandOffWeight(c.now, cn.prev, toward, c.ext[i], c.test) / c.den[i]
	}
	return b * p
}

// eq5Accumulate answers one direction from the view: the term column is
// materialized on first use and the sum accumulated over it in table
// order, matching eq5Scratch. Called under the engine lock.
func (e *Engine) eq5Accumulate(toward topology.LocalIndex) float64 {
	c := &e.eq5
	t := int(toward)
	n := len(e.conns)
	if t < 1 || t >= len(c.termsDone) {
		// Out-of-range direction (never a live neighbor): answer without
		// touching the view's column state.
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += e.eq5Term(i, toward)
		}
		return sum
	}
	if !c.termsDone[t] {
		c.terms[t] = grow(c.terms[t], n)
		col := c.terms[t]
		for i := 0; i < n; i++ {
			col[i] = e.eq5Term(i, toward)
		}
		c.termsDone[t] = true
	}
	sum := 0.0
	for _, v := range c.terms[t][:n] {
		sum += v
	}
	return sum
}

// eq5Extend incorporates the connection just appended at table slot i
// into the live view. A timestamp change is first advanced across like
// any query would; the new connection's base state, guards, and
// materialized term-column entries are then appended, and every
// finished direction sum extended by its term — exactly what a
// from-scratch walk would now produce, since the new connection sits at
// the end of the table. Any key mismatch simply drops the view. Called
// under the engine lock by AddConnection.
func (e *Engine) eq5Extend(i int, now float64) {
	c := &e.eq5
	if !c.valid {
		return
	}
	if e.patterns == nil {
		c.invalidate()
		return
	}
	est := e.patterns.Estimator(now)
	if est != c.est {
		c.invalidate()
		return
	}
	if c.now != now {
		if !e.eq5Advance(now, est) {
			c.invalidate()
			return
		}
	} else if est.Generation() != c.estGen {
		c.invalidate()
		return
	}
	c.ext = append(c.ext[:i], 0)
	c.den = append(c.den[:i], 0)
	c.hintP = append(c.hintP[:i], 0)
	c.nextLo = append(c.nextLo[:i], 0)
	c.nextHi = append(c.nextHi[:i], 0)
	e.eq5Base(i)
	e.eq5Guards(i)
	for t := 1; t < len(c.termsDone); t++ {
		if !c.termsDone[t] {
			continue
		}
		v := e.eq5Term(i, topology.LocalIndex(t))
		c.terms[t] = append(c.terms[t][:i], v)
		if c.done[t] {
			c.sums[t] += v
		}
	}
}

// eq5Remove mirrors the engine's swap-removal of table slot i (the old
// last slot moved into i) in the per-connection view state and clears
// the direction sums: the cached terms stay valid per connection, but a
// float sum cannot be patched by subtraction and re-accumulating in the
// new table order is what the from-scratch walk now does. Called under
// the engine lock by RemoveConnection, after the table swap, with last
// = the new table length.
func (e *Engine) eq5Remove(i, last int) {
	c := &e.eq5
	if !c.valid {
		return
	}
	if i != last {
		c.ext[i] = c.ext[last]
		c.den[i] = c.den[last]
		c.hintP[i] = c.hintP[last]
		c.nextLo[i] = c.nextLo[last]
		c.nextHi[i] = c.nextHi[last]
	}
	c.ext = c.ext[:last]
	c.den = c.den[:last]
	c.hintP = c.hintP[:last]
	c.nextLo = c.nextLo[:last]
	c.nextHi = c.nextHi[:last]
	for t := 1; t < len(c.termsDone); t++ {
		if !c.termsDone[t] {
			continue
		}
		if i != last {
			c.terms[t][i] = c.terms[t][last]
		}
		c.terms[t] = c.terms[t][:last]
	}
	for t := range c.done {
		c.done[t] = false
	}
}

// eq5Scratch is the retained from-scratch Eq. 5 walk — the reference
// semantics the view must reproduce bit-for-bit, kept both as the
// verifier's oracle and as documentation of the paper's sum:
// B_{this,toward} = Σ_j b(C_j) · p_h(C_j → toward within test).
func (e *Engine) eq5Scratch(now float64, toward topology.LocalIndex, test float64, est *predict.Estimator) float64 {
	sum := 0.0
	for i := range e.conns {
		c := &e.conns[i]
		extSoj := now - c.enteredAt
		if extSoj < 0 {
			extSoj = 0
		}
		// Reservation is made on the basis of each connection's minimum
		// QoS (§1: integration with adaptive-QoS schemes).
		b := float64(c.min)
		if c.hint != NoHint {
			// §7 extension: the next cell is known; only the hand-off
			// time is estimated.
			if c.hint == toward {
				sum += b * est.SojournProb(now, c.prev, c.hint, extSoj, test)
			}
			continue
		}
		sum += b * est.HandOffProb(now, c.prev, extSoj, test, toward)
	}
	return sum
}

// Eq5CacheStats returns the lifetime (hit, miss) counts of the Eq. 5
// view: hits answered from a finished per-direction sum, misses paid
// for a rebuild or an accumulation walk. The benchmark reports their
// ratio as core.eq5_hit_ratio and the audit prints both on a
// divergence; the view's event counts are in Ledger.
func (e *Engine) Eq5CacheStats() (hits, misses uint64) {
	e.lock()
	defer e.unlock()
	return e.eq5.hits, e.eq5.misses
}

// VerifyEq5Cache re-derives the live view against the from-scratch
// oracle at the view's own timestamp and returns the largest absolute
// divergence observed; checked is false when there was no live view to
// compare (no view, stale generation, or nothing accumulated yet). The
// sweep re-derives three layers: every finished per-direction sum
// against eq5Scratch, every materialized term against a fresh Eq. 4
// evaluation, and every connection's staleness guards (a guard that no
// longer holds means an advance failed to refresh the connection —
// reported as an infinite divergence, since the cached state is then
// untrustworthy regardless of its current numeric luck). internal/audit
// wires this into the invariant sweep with a 1e-9 tolerance, keeping
// the incremental fast path honest against the retained from-scratch
// path.
func (e *Engine) VerifyEq5Cache() (maxDiff float64, checked bool) {
	if e.patterns == nil {
		return 0, false
	}
	e.lock()
	defer e.unlock()
	return e.verifyEq5Locked()
}

// VerifyEq5CacheAt is VerifyEq5Cache restricted to a view whose current
// timestamp equals now. The event-boundary invariant sweep uses it: it
// certifies exactly the state the just-fired event's admission queries
// consumed, and the from-scratch walks run at the current timestamp, so
// they never force the estimator indexes backward in time (re-verifying
// a stale key would rebuild each windowed selection at the old
// timestamp and again at the next real query, thrashing every audited
// event).
func (e *Engine) VerifyEq5CacheAt(now float64) (maxDiff float64, checked bool) {
	if e.patterns == nil {
		return 0, false
	}
	e.lock()
	defer e.unlock()
	if e.eq5.now != now {
		return 0, false
	}
	return e.verifyEq5Locked()
}

func (e *Engine) verifyEq5Locked() (maxDiff float64, checked bool) {
	c := &e.eq5
	if !c.valid {
		return 0, false
	}
	if est := e.patterns.Estimator(c.now); est != c.est || est.Generation() != c.estGen {
		// Stale key: the next query discards the view anyway; there is
		// no live state to certify.
		return 0, false
	}
	// Layer 1: the view's table is the engine's, and every
	// per-connection guard holds at the view's own timestamp.
	if len(c.ext) != len(e.conns) {
		return math.Inf(1), true
	}
	for i := range e.conns {
		if !e.eq5GuardAt(i, c.now) {
			return math.Inf(1), true
		}
	}
	// Layer 2: materialized term columns against fresh Eq. 4
	// evaluations at the view's timestamp.
	for t := 1; t < len(c.termsDone); t++ {
		if !c.termsDone[t] {
			continue
		}
		toward := topology.LocalIndex(t)
		for i := range e.conns {
			cn := &e.conns[i]
			ext := c.now - cn.enteredAt
			if ext < 0 {
				ext = 0
			}
			b := float64(cn.min)
			fresh := 0.0
			if cn.hint != NoHint {
				if cn.hint == toward {
					fresh = b * c.est.SojournProb(c.now, cn.prev, cn.hint, ext, c.test)
				}
			} else {
				fresh = b * c.est.HandOffProb(c.now, cn.prev, ext, c.test, toward)
			}
			if d := math.Abs(fresh - c.terms[t][i]); d > maxDiff {
				maxDiff = d
			}
		}
		checked = true
	}
	// Layer 3: finished direction sums against the from-scratch walk.
	for t := 1; t < len(c.done); t++ {
		if !c.done[t] {
			continue
		}
		scratch := e.eq5Scratch(c.now, topology.LocalIndex(t), c.test, c.est)
		if d := math.Abs(scratch - c.sums[t]); d > maxDiff {
			maxDiff = d
		}
		checked = true
	}
	return maxDiff, checked
}
