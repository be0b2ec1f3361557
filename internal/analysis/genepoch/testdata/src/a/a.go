// Package a is the genepoch fixture: estimator-derived values cached
// across a generation bump, next to the approved re-derive and
// Generation()-gated forms. The stale-read shape is exactly the bug
// class the PR-4 eq5 cache's matches() check exists to rule out — an
// early draft cached per-connection denominators across Record and
// drifted from the from-scratch Eq. 5 walk.
package a

import "cellqos/internal/predict"

// staleRead caches a denominator, lets Record move the epoch, then
// reuses the dead value.
func staleRead(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	return denom // want `denom \(from SurvivorWeight\) is read after Record bumped the estimator generation`
}

// staleAfterSweep: eviction sweeps bump the epoch too.
func staleAfterSweep(e *predict.Estimator) float64 {
	bound := e.MaxSojourn(100)
	e.SweepAt(200)
	return bound // want `bound \(from MaxSojourn\) is read after SweepAt bumped the estimator generation`
}

// rederived recomputes after the mutation: fresh, not flagged.
func rederived(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	denom = e.SurvivorWeight(100, 1, 5)
	return denom
}

// generationGated compares epochs before trusting the cache — the
// eq5cache.matches() discipline.
func generationGated(e *predict.Estimator, q predict.Quadruplet, cachedGen uint64) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	if e.Generation() != cachedGen {
		return -1
	}
	return denom
}

// useBeforeMutation is safe: the value is consumed before the epoch
// moves.
func useBeforeMutation(e *predict.Estimator, q predict.Quadruplet) float64 {
	w := e.HandOffWeight(100, 1, 2, 5, 10)
	out := w * 2
	e.Record(q)
	return out
}

// allowEscapeHatch exercises //cellqos:allow with a justification.
func allowEscapeHatch(e *predict.Estimator, q predict.Quadruplet) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	e.Record(q)
	return denom //cellqos:allow genepoch fixture: intentional before/after comparison
}

// The incremental-view shapes (DESIGN.md §11): the materialized Eq. 5
// view caches guards returned by SurvivorWeightNext and
// HandOffWeightNext, and EnsureCurrent — the view's own pinning hook —
// performs the lazy rebuilds that kill such state.

// staleGuard caches a guard, lets Record move the epoch, then trusts
// the dead sojourn.
func staleGuard(e *predict.Estimator, q predict.Quadruplet) float64 {
	_, next := e.SurvivorWeightNext(100, 1, 5)
	e.Record(q)
	return next // want `next \(from SurvivorWeightNext\) is read after Record bumped the estimator generation`
}

// staleAcrossEnsure caches a denominator, then pins the estimator at a
// later timestamp: EnsureCurrent may have rebuilt the selection the
// denominator came from.
func staleAcrossEnsure(e *predict.Estimator) float64 {
	denom := e.SurvivorWeight(100, 1, 5)
	_ = e.EnsureCurrent(200)
	return denom // want `denom \(from SurvivorWeight\) is read after EnsureCurrent bumped the estimator generation`
}

// ensureThenDerive is the view's rebuild discipline: pin first, derive
// after — nothing outlives a bump.
func ensureThenDerive(e *predict.Estimator) float64 {
	gen := e.EnsureCurrent(200)
	den, next := e.SurvivorWeightNext(200, 1, 5)
	if gen != e.Generation() {
		return -1
	}
	return den + next
}

// ensureGated keeps pre-pin state only behind a Generation()
// comparison — the advance path's epoch check.
func ensureGated(e *predict.Estimator, cachedGen uint64) float64 {
	w, hi := e.HandOffWeightNext(100, 1, 2, 5, 10)
	_ = e.EnsureCurrent(200)
	if e.Generation() != cachedGen {
		return -1
	}
	return w + hi
}

// staleSweep keeps a sweep query's numerator across Record: the
// cursors read the selection Record replaced.
func staleSweep(e *predict.Estimator, q predict.Quadruplet) float64 {
	_, _, w, _ := e.SweepNext(1, 2, 5, 10)
	e.Record(q)
	return w // want `w \(from SweepNext\) is read after Record bumped the estimator generation`
}

// sweepGated reads a sweep result across Record only behind a
// Generation() comparison.
func sweepGated(e *predict.Estimator, q predict.Quadruplet, cachedGen uint64) float64 {
	w, hi := e.SweepHandOffNext(1, 2, 5, 10)
	e.Record(q)
	if e.Generation() != cachedGen {
		return -1
	}
	return w + hi
}
