package predict

import (
	"cmp"
	"slices"

	"cellqos/internal/topology"
)

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// WeightedSample is one selected quadruplet with its window weight.
type WeightedSample struct {
	Sojourn float64
	Weight  float64
	Next    topology.LocalIndex
}

// SelectedCount returns the number of quadruplets in the current
// selection (for diagnostics and tests).
func (e *Estimator) SelectedCount(t0 float64) int {
	e.ensureAll(t0)
	n := 0
	for _, p := range e.allPairs {
		n += len(p.sojSorted)
	}
	return n
}

// Selected returns the current weighted selection for a given prev, in
// ascending sojourn order (pairs in first-Record order among equal
// sojourns). A diagnostic for tests of the window rules.
func (e *Estimator) Selected(t0 float64, prev topology.LocalIndex) []WeightedSample {
	e.ensurePrev(prev, t0)
	g := e.group(prev)
	if g == nil {
		return nil
	}
	var sel []WeightedSample
	for i, p := range g.pairs {
		for j, soj := range p.sojSorted {
			w := p.wCum[j]
			if j > 0 {
				w -= p.wCum[j-1]
			}
			sel = append(sel, WeightedSample{Sojourn: soj, Weight: w, Next: g.nexts[i]})
		}
	}
	slices.SortStableFunc(sel, func(a, b WeightedSample) int { return cmp.Compare(a.Sojourn, b.Sojourn) })
	return sel
}
