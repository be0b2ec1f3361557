// Package stats collects the paper's evaluation metrics: new-connection
// blocking probability P_CB, hand-off dropping probability P_HD,
// time-averaged target-reservation and used bandwidth (B_r, B_u),
// admission-test complexity N_calc, per-hour buckets for the
// time-varying plots, and time series for the per-cell traces.
package stats

import (
	"fmt"
	"math"
)

// Counters tallies connection-level events for one cell (or aggregated
// over a whole system).
type Counters struct {
	Requested uint64 // new-connection admission attempts
	Blocked   uint64 // ... of which rejected
	HandOffs  uint64 // hand-off arrivals into the cell
	Dropped   uint64 // ... of which dropped for lack of bandwidth
	Completed uint64 // connections that ended naturally in the cell
	Exited    uint64 // connections whose mobile left the coverage area

	AdmissionTests uint64 // admission tests run
	BrCalcs        uint64 // target-reservation-bandwidth calculations (Σ for N_calc)
}

// RecordRequest tallies a new-connection attempt.
func (c *Counters) RecordRequest(blocked bool) {
	c.Requested++
	if blocked {
		c.Blocked++
	}
}

// RecordHandOff tallies a hand-off arrival.
func (c *Counters) RecordHandOff(dropped bool) {
	c.HandOffs++
	if dropped {
		c.Dropped++
	}
}

// RecordAdmissionTest tallies one admission test that required n B_r
// calculations (the paper's N_calc numerator and denominator).
func (c *Counters) RecordAdmissionTest(nBrCalcs int) {
	c.AdmissionTests++
	c.BrCalcs += uint64(nBrCalcs)
}

// PCB returns the observed new-connection blocking probability; 0 when
// nothing was requested.
func (c *Counters) PCB() float64 { return ratio(c.Blocked, c.Requested) }

// PHD returns the observed hand-off dropping probability; 0 when no
// hand-offs occurred.
func (c *Counters) PHD() float64 { return ratio(c.Dropped, c.HandOffs) }

// NCalc returns the average number of B_r calculations per admission test.
func (c *Counters) NCalc() float64 { return fratio(float64(c.BrCalcs), float64(c.AdmissionTests)) }

// Add accumulates other into c (for aggregating cells into a system view).
func (c *Counters) Add(other *Counters) {
	c.Requested += other.Requested
	c.Blocked += other.Blocked
	c.HandOffs += other.HandOffs
	c.Dropped += other.Dropped
	c.Completed += other.Completed
	c.Exited += other.Exited
	c.AdmissionTests += other.AdmissionTests
	c.BrCalcs += other.BrCalcs
}

func ratio(num, den uint64) float64 { return fratio(float64(num), float64(den)) }

func fratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// TimeWeighted tracks a piecewise-constant value and its time integral,
// yielding exact time averages (used for the paper's average B_r / B_u).
type TimeWeighted struct {
	value    float64
	integral float64
	start    float64
	last     float64
	started  bool
}

// Set records that the value changed to v at time t. Times must be
// non-decreasing.
func (w *TimeWeighted) Set(t, v float64) {
	if math.IsNaN(v) {
		panic("stats: NaN value")
	}
	if !w.started {
		w.started = true
		w.start, w.last, w.value = t, t, v
		return
	}
	if t < w.last {
		panic(fmt.Sprintf("stats: time went backwards: %v after %v", t, w.last))
	}
	w.integral += w.value * (t - w.last)
	w.last, w.value = t, v
}

// Mean returns the time average over [start, now]. now must be ≥ the last
// Set time. Zero before any Set.
func (w *TimeWeighted) Mean(now float64) float64 {
	if !w.started || now <= w.start {
		return w.value
	}
	if now < w.last {
		panic("stats: Mean before last Set")
	}
	return (w.integral + w.value*(now-w.last)) / (now - w.start)
}

// Series is an append-only (time, value) trace.
type Series struct {
	T, V []float64
}

// Append adds a point.
func (s *Series) Append(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// ValueAt returns the value of the last point at or before t (sample-and-
// hold), and false when no point precedes t.
func (s *Series) ValueAt(t float64) (float64, bool) {
	lo, hi := 0, len(s.T)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.T[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	return s.V[lo-1], true
}

// Hourly buckets counters by hour-of-run for the time-varying plots
// (Fig. 14(b) reports per-hour P_CB and P_HD).
type Hourly struct {
	buckets []Counters
}

// bucket returns the counter set for time t, growing as needed.
func (h *Hourly) bucket(t float64) *Counters {
	i := int(t / 3600)
	if i < 0 {
		i = 0
	}
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, Counters{})
	}
	return &h.buckets[i]
}

// RecordRequest tallies a new-connection attempt at time t.
func (h *Hourly) RecordRequest(t float64, blocked bool) { h.bucket(t).RecordRequest(blocked) }

// RecordHandOff tallies a hand-off arrival at time t.
func (h *Hourly) RecordHandOff(t float64, dropped bool) { h.bucket(t).RecordHandOff(dropped) }

// Hours returns the number of buckets.
func (h *Hourly) Hours() int { return len(h.buckets) }

// Hour returns bucket i (zero value beyond the recorded range).
func (h *Hourly) Hour(i int) Counters {
	if i < 0 || i >= len(h.buckets) {
		return Counters{}
	}
	return h.buckets[i]
}
