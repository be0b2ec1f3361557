package core

import (
	"math"
	"slices"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

// eq5Cache maintains the Eq. 5 state of one engine as a materialized
// view: per-connection base state (Eq. 4 denominator or hinted sojourn
// probability, and its staleness guards), per-direction term columns, and
// per-direction sums, updated by deltas as events arrive instead of
// recomputed per query. The admission fast path advances `now` on every
// burst, so a memo keyed on an exact (now, test, generation) triple
// pays a full Eq. 4 walk per burst; the view instead *advances* across
// timestamps with one scan of its guards — two float comparisons per
// live connection — and refreshes only the connections whose cached
// Eq. 4 terms actually change value.
//
// Everything here must stay bit-exact with the retained from-scratch
// walk (eq5Scratch): the golden corpus pins simulation bytes, and float
// addition is not associative. The rules that keep it exact:
//
//   - Eq. 4 queries are piecewise-constant step functions of the extant
//     sojourn: every query reduces to binary searches over the selected
//     sojourn times of the connection's prev-group, so a cached value
//     stays bit-identical while the (clamped) extant sojourn and its
//     +test edge do not reach the next selected sojourn above the edge
//     each search consumed. The searches that compute a connection's
//     terms return those sojourns (predict.SurvivorWeightNext,
//     HandOffWeightNext), and the connection keeps the smallest per
//     edge (nextLo/nextHi); staleness is evaluated with the *same float
//     expressions* the searches consume (ext := now − enteredAt
//     clamped; ext+test), so there is no ulp hazard.
//   - A rebuild or a column's first materialization reads those search
//     indices by sweeping: it visits the connections youngest first
//     (eq5Sweep), in non-decreasing extant sojourn, and the estimator's
//     sweep queries advance per-pair cursors instead of searching. A
//     cursor's position is the index the search would return, so every
//     value and guard is the same.
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
//     sum equals a from-scratch recomputation at the view's timestamp.
//
// The per-connection base state lives in the connection table itself
// (conn embeds an eq5Slot), so the table's own append and swap-removal
// carry it; the term columns share one row-major block. Both are reused
// across rebuilds, so steady state — advances, refreshes, extends,
// removes, queries — is allocation-free.
type eq5Cache struct {
	valid  bool
	now    float64
	test   float64
	est    *predict.Estimator
	estGen uint64

	// terms[i*d+t], d = Degree+1, is connection i's Eq. 5 term toward
	// direction t (row 0 of each connection unused); termsDone[t] marks
	// columns that are materialized for the current table. done[t] marks
	// directions whose sum is accumulated (done[t] implies termsDone[t]).
	// Advances and removals clear done only — the cached terms stay valid
	// per connection and sums are lazily re-accumulated in table order.
	terms     []float64
	termsDone []bool
	sums      []float64
	done      []bool

	hits, misses uint64 // per-query accounting, exposed via Eq5CacheStats

	// Materialized-view event accounting, exposed via the engine Ledger.
	rebuilds  uint64 // full from-scratch view rebuilds
	advances  uint64 // timestamp advances served incrementally
	refreshes uint64 // per-connection base-state refreshes during advances
}

// eq5Slot is one connection's Eq. 5 base state, embedded in conn: den
// is the Eq. 4 denominator (survivor weight) of a hint-less connection,
// or the §7 sojourn probability of a hinted one.
//
// The staleness guards: den and the connection's materialized terms stay
// valid at a later timestamp while
//
//	ext < nextLo && ext+test < nextHi
//
// where ext is computed exactly as eq5Ext computes it. nextLo is the
// smallest selected sojourn of the prev-group strictly above the ext den
// was computed at, which pins the denominator and every numerator's
// lower edge. nextHi bounds the upper edges: for a hint-less connection
// the smallest sojourn strictly above ext+test among the pairs feeding
// a materialized term (+Inf before any), for a hinted one the
// group-wide smallest, since SojournProb's fallback reads every pair.
type eq5Slot struct {
	den, nextLo, nextHi float64
}

// invalidate discards the view (buffers are kept for reuse).
func (c *eq5Cache) invalidate() { c.valid = false }

// row returns connection i's term row.
func (c *eq5Cache) row(i int) []float64 {
	d := len(c.termsDone)
	return c.terms[i*d : (i+1)*d]
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
// checked with the exact float expressions the estimator's queries
// consume; connections whose extant sojourn or its +test edge reached a
// guard get their base state, guards, and materialized term columns
// refreshed, and the direction sums are lazily re-accumulated. The
// scan runs in table order, which keeps it sequential; each refresh's
// sweep queries start from wherever the last query left the cursors
// (a binary search when that is past the row's extant sojourn).
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
	for i := range e.conns {
		if !e.eq5GuardAt(i, now) {
			c.refreshes++
			e.eq5Row(i, 0)
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
// timestamp t, using the exact float expressions the estimator's
// queries consume.
func (e *Engine) eq5GuardAt(i int, t float64) bool {
	cn := &e.conns[i]
	ext := eq5Ext(t, cn)
	return ext < cn.nextLo && ext+e.eq5.test < cn.nextHi
}

// eq5Ext is connection cn's extant sojourn at timestamp t, clamped at 0
// for a connection that entered after t — the expression eq5Scratch
// computes.
func eq5Ext(t float64, cn *conn) float64 {
	ext := t - cn.enteredAt
	if ext < 0 {
		ext = 0
	}
	return ext
}

// eq5Rebuild builds the view from scratch for (now, test, est) with
// column t materialized: one sweep computes every connection's base
// state and its term toward t, and no sum is finished. The estimator is
// pinned with EnsureCurrent before the sweep, so no lazy selection
// rebuild can move the generation mid-build. Called under the engine
// lock.
func (e *Engine) eq5Rebuild(now, test float64, est *predict.Estimator, t int) {
	c := &e.eq5
	c.rebuilds++
	c.valid = true
	c.now, c.test, c.est = now, test, est
	c.estGen = est.EnsureCurrent(now)
	n, d := len(e.conns), e.cfg.Degree+1
	// slices.Grow grows the block by append's amortized policy, so a
	// filling cell that rebuilds at every add reallocates it only
	// O(log n) times.
	c.terms = slices.Grow(c.terms[:0], n*d)[:n*d]
	c.sums = slices.Grow(c.sums[:0], d)[:d]
	c.done = slices.Grow(c.done[:0], d)[:d]
	c.termsDone = slices.Grow(c.termsDone[:0], d)[:d]
	clear(c.done)
	clear(c.termsDone)
	c.termsDone[t] = true
	e.eq5Sweep(0)
}

// eq5Sweep applies eq5Row(i, t) to every connection, youngest first —
// in non-decreasing extant sojourn, so each (prev, next) pair's sweep
// cursors in the estimator only move forward and the sweep merges the
// pair's selected sojourns once instead of binary searching them per
// connection. Called under the engine lock.
func (e *Engine) eq5Sweep(t int) {
	for i := e.youngest; i >= 0; i = e.conns[i].older {
		e.eq5Row(int(i), t)
	}
}

// eq5Row recomputes connection i at the view's timestamp: with t = 0
// its base state, guards and term in every materialized column, with
// t ≥ 1 its term in column t alone. A hint-less connection takes them
// from the estimator's sweep queries (predict.SweepNext,
// SweepHandOffNext), which answer bit for bit what SurvivorWeightNext
// and HandOffWeightNext answer; a hinted one from eq5Base and eq5Cell.
// The view's estimator is current at its timestamp (eq5Rebuild and
// eq5Advance pin it, and eq5Current checks the generation since).
// Fresh guards hold strictly at the view's timestamp, which is what
// verifyEq5Locked checks.
func (e *Engine) eq5Row(i, t int) {
	c := &e.eq5
	cn := &e.conns[i]
	d := len(c.termsDone)
	if cn.nextCell() != NoHint {
		if t != 0 {
			e.eq5Cell(i, t)
			return
		}
		e.eq5Base(i)
		for u := 1; u < d; u++ {
			if c.termsDone[u] {
				e.eq5Cell(i, u)
			}
		}
		return
	}
	ext := eq5Ext(c.now, cn)
	if t != 0 {
		w, hi := c.est.SweepHandOffNext(cn.prev, topology.LocalIndex(t), ext, c.test)
		e.eq5Put(i, t, w, hi)
		return
	}
	// The base state comes fused with the first materialized column's
	// numerator (with none, the numerator toward d goes unused).
	t = 1
	for t < d && !c.termsDone[t] {
		t++
	}
	first := t
	var w, hi float64
	cn.den, cn.nextLo, w, hi = c.est.SweepNext(cn.prev, topology.LocalIndex(t), ext, c.test)
	cn.nextHi = math.Inf(1)
	for ; t < d; t++ {
		if !c.termsDone[t] {
			continue
		}
		if t != first {
			w, hi = c.est.SweepHandOffNext(cn.prev, topology.LocalIndex(t), ext, c.test)
		}
		e.eq5Put(i, t, w, hi)
	}
}

// eq5Put stores connection i's term in column t from its Eq. 4
// numerator w and the numerator's upper-edge guard hi, with
// HandOffProb's arithmetic, and tightens the connection's guard by it.
func (e *Engine) eq5Put(i, t int, w, hi float64) {
	cn := &e.conns[i]
	p := 0.0
	if cn.den != 0 {
		// A never-seen (prev, toward) pair yields weight 0 and p = +0,
		// exactly like the scalar HandOffProb query.
		p = w / cn.den
		cn.nextHi = min(cn.nextHi, hi)
	}
	e.eq5.row(i)[t] = float64(cn.min) * p
}

// eq5Sum accumulates column t over the table in table order, the order
// eq5Scratch adds in.
func (e *Engine) eq5Sum(t int) float64 {
	c := &e.eq5
	d := len(c.termsDone)
	sum := 0.0
	for i := range e.conns {
		sum += c.terms[i*d+t]
	}
	return sum
}

// eq5Base fills hinted table slot i's base state and guards at the
// view's current timestamp: the §7 sojourn probability, and nextHi
// from the group-wide search, since SojournProb's fallback reads every
// pair.
func (e *Engine) eq5Base(i int) {
	c := &e.eq5
	cn := &e.conns[i]
	ext := eq5Ext(c.now, cn)
	_, cn.nextLo = c.est.SurvivorWeightNext(c.now, cn.prev, ext)
	_, cn.nextHi = c.est.SurvivorWeightNext(c.now, cn.prev, ext+c.test)
	cn.den = c.est.SojournProb(c.now, cn.prev, cn.nextCell(), ext, c.test)
}

// eq5Cell stores hinted connection i's term in column t: its §7
// sojourn probability toward the hinted cell, 0 toward any other. It
// reads no numerator, so it adds no guard.
func (e *Engine) eq5Cell(i, t int) {
	cn := &e.conns[i]
	v := 0.0
	if cn.nextCell() == topology.LocalIndex(t) {
		v = float64(cn.min) * cn.den
	}
	e.eq5.row(i)[t] = v
}

// eq5Extend incorporates the connection just appended at table slot i
// into the live view without moving the view's timestamp: the new
// connection's base state, guards and materialized terms are computed at
// the view's own now (a connection entering later has its extant sojourn
// clamped to 0 there, and its guards are checked at the next query like
// any other row), and every finished direction sum is extended by its
// term — exactly what a from-scratch walk at the view's now would
// produce, since the new connection sits at the end of the table. A
// changed estimator or generation, or a clock that went backwards, drops
// the view. Called under the engine lock by AddConnection.
func (e *Engine) eq5Extend(i int, now float64) {
	c := &e.eq5
	if !c.valid {
		return
	}
	if e.patterns == nil || now < c.now {
		c.invalidate()
		return
	}
	if est := e.patterns.Estimator(now); est != c.est || est.Generation() != c.estGen {
		c.invalidate()
		return
	}
	d := len(c.termsDone)
	c.terms = slices.Grow(c.terms[:i*d], d)[:(i+1)*d]
	e.eq5Row(i, 0)
	for t := 1; t < d; t++ {
		if c.done[t] {
			c.sums[t] += c.row(i)[t]
		}
	}
}

// eq5Remove mirrors the engine's swap-removal of table slot i (the old
// last slot moved into i, carrying its eq5Slot) in the term block and
// clears the direction sums: the cached terms stay valid per connection,
// but a float sum cannot be patched by subtraction and re-accumulating
// in the new table order is what the from-scratch walk now does. Called
// under the engine lock by RemoveConnection, after the table swap, with
// last = the new table length.
func (e *Engine) eq5Remove(i, last int) {
	c := &e.eq5
	if !c.valid {
		return
	}
	if i != last {
		copy(c.row(i), c.row(last))
	}
	c.terms = c.terms[:last*len(c.termsDone)]
	clear(c.done)
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
		if c.nextCell() != NoHint {
			// §7 extension: the next cell is known; only the hand-off
			// time is estimated.
			if c.nextCell() == toward {
				sum += b * est.SojournProb(now, c.prev, c.nextCell(), extSoj, test)
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

// VerifyEq5CacheAt re-derives the live view against the from-scratch
// oracle and returns the largest absolute divergence observed; checked
// is false when there was no live view at timestamp now to compare (no
// view, another timestamp, stale generation, or nothing accumulated
// yet). The sweep re-derives three layers: every finished per-direction
// sum against eq5Scratch, every materialized term against a fresh Eq. 4
// evaluation, and every connection's staleness guards (a guard that no
// longer holds means an advance failed to refresh the connection —
// reported as an infinite divergence, since the cached state is then
// untrustworthy regardless of its current numeric luck); an age order
// that does not visit every row once, youngest first, reports the same.
// internal/audit wires this into the invariant sweep with zero
// tolerance, keeping the incremental fast path honest against the
// retained from-scratch path.
//
// The event-boundary invariant sweep passes the current time: that
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
	// Layer 1: the term block has a row per connection, the age order
	// visits every row once from youngest to oldest, and every
	// per-connection guard holds at the view's own timestamp.
	if len(c.terms) != len(e.conns)*len(c.termsDone) || !e.ageOrderSound() {
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
			if cn.nextCell() != NoHint {
				if cn.nextCell() == toward {
					fresh = b * c.est.SojournProb(c.now, cn.prev, cn.nextCell(), ext, c.test)
				}
			} else {
				fresh = b * c.est.HandOffProb(c.now, cn.prev, ext, c.test, toward)
			}
			if d := math.Abs(fresh - c.row(i)[t]); d > maxDiff {
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

// ageOrderSound reports whether the age order the sweeps walk threads
// every table row exactly once with non-increasing enteredAt from
// Engine.youngest. A walk of len(conns) in-range steps whose every step
// is mirrored by the younger link, starting at a row with no younger
// one and ending at -1, cannot revisit a row: the first repeat would
// need two distinct younger neighbours.
func (e *Engine) ageOrderSound() bool {
	n, younger := 0, int32(-1)
	for i := e.youngest; i >= 0; i = e.conns[i].older {
		if int(i) >= len(e.conns) || n == len(e.conns) || e.conns[i].younger != younger ||
			(younger >= 0 && e.conns[i].enteredAt > e.conns[younger].enteredAt) {
			return false
		}
		n, younger = n+1, i
	}
	return n == len(e.conns)
}
