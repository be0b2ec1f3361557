// Package predict is the genepoch fixture stub: the estimator surface
// whose generation epoch the analyzer guards.
package predict

// Quadruplet mirrors one hand-off event record.
type Quadruplet struct{ T float64 }

// Estimator mirrors the real estimator: queries are generation-scoped,
// mutators bump the generation.
type Estimator struct{ gen uint64 }

// Generation returns the epoch; it changes whenever derived state may.
func (e *Estimator) Generation() uint64 { return e.gen }

// Record feeds one quadruplet (bumps the generation).
func (e *Estimator) Record(q Quadruplet) { e.gen++ }

// SweepAt evicts out-of-date history (may bump the generation).
func (e *Estimator) SweepAt(t float64) { e.gen++ }

// SurvivorWeight is a generation-scoped Eq. 4 query.
func (e *Estimator) SurvivorWeight(t0 float64, prev int, extSoj float64) float64 { return 1 }

// HandOffWeight is a generation-scoped Eq. 5 query.
func (e *Estimator) HandOffWeight(t0 float64, prev, next int, extSoj, test float64) float64 {
	return 1
}

// MaxSojourn is a generation-scoped selected-sample bound.
func (e *Estimator) MaxSojourn(t0 float64) float64 { return 1 }

// EnsureCurrent forces every lazy selection current at t0 (performing
// any pending generation-bumping rebuilds) and returns the pinned
// generation.
func (e *Estimator) EnsureCurrent(t0 float64) uint64 { e.gen++; return e.gen }

// SurvivorWeightNext is SurvivorWeight plus the next selected sojourn
// above extSoj — a staleness guard of the materialized Eq. 5 view.
func (e *Estimator) SurvivorWeightNext(t0 float64, prev int, extSoj float64) (den, next float64) {
	return 1, 2
}

// HandOffWeightNext is HandOffWeight plus the pair's next selected
// sojourn above extSoj+test.
func (e *Estimator) HandOffWeightNext(t0 float64, prev, next int, extSoj, test float64) (w, hi float64) {
	return 1, 2
}

// SweepNext is SurvivorWeightNext and HandOffWeightNext in one call,
// read from per-pair cursors.
func (e *Estimator) SweepNext(prev, next int, extSoj, test float64) (den, lo, w, hi float64) {
	return 1, 2, 1, 2
}

// SweepHandOffNext is SweepNext's numerator and upper guard alone.
func (e *Estimator) SweepHandOffNext(prev, next int, extSoj, test float64) (w, hi float64) {
	return 1, 2
}
