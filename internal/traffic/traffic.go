// Package traffic generates connection workload: Poisson new-connection
// arrivals per cell (paper A2), a voice/video class mix (A3),
// exponentially distributed connection lifetimes (A5), offered-load
// arithmetic (Eq. 7), time-of-day schedules for the time-varying
// scenario (§5.3), and the blocked-request retry model.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// BU is a bandwidth amount in Bandwidth Units; 1 BU is the bandwidth of a
// voice connection (paper §2).
type BU = int

// Class describes a connection type.
type Class struct {
	Name      string
	Bandwidth BU
}

// The paper's two connection classes (A3).
var (
	Voice = Class{Name: "voice", Bandwidth: 1}
	Video = Class{Name: "video", Bandwidth: 4}
)

// Mix is a two-class voice/video mixture: a new connection is voice with
// probability VoiceRatio (the paper's R_vo), video otherwise.
type Mix struct {
	VoiceRatio float64
}

// Sample draws a connection class.
func (m Mix) Sample(rng *rand.Rand) Class {
	if m.VoiceRatio < 0 || m.VoiceRatio > 1 {
		panic(fmt.Sprintf("traffic: VoiceRatio %v outside [0,1]", m.VoiceRatio))
	}
	if rng.Float64() < m.VoiceRatio {
		return Voice
	}
	return Video
}

// MeanBandwidth returns E[b] in BUs: R_vo·1 + (1−R_vo)·4.
func (m Mix) MeanBandwidth() float64 {
	return m.VoiceRatio*float64(Voice.Bandwidth) + (1-m.VoiceRatio)*float64(Video.Bandwidth)
}

// MeanLifetime is the paper's mean connection lifetime in seconds (A5).
const MeanLifetime = 120.0

// Lifetime draws an exponential connection lifetime with the given mean.
func Lifetime(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		panic("traffic: non-positive mean lifetime")
	}
	return rng.ExpFloat64() * mean
}

// RateForLoad inverts the paper's Eq. 7
//
//	L = λ · E[b] · meanLifetime
//
// returning the per-cell Poisson rate λ (connections/second/cell) that
// produces offered load L (BUs) for the given class mix.
func RateForLoad(load float64, mix Mix, meanLifetime float64) float64 {
	if load < 0 {
		panic("traffic: negative offered load")
	}
	den := mix.MeanBandwidth() * meanLifetime
	if den <= 0 {
		panic("traffic: degenerate mix/lifetime")
	}
	return load / den
}

// LoadForRate is the forward direction of Eq. 7.
func LoadForRate(lambda float64, mix Mix, meanLifetime float64) float64 {
	return lambda * mix.MeanBandwidth() * meanLifetime
}

// NextArrival samples the next Poisson arrival time strictly after now,
// for a (possibly piecewise-constant) rate function given by sched. It
// uses the standard piecewise algorithm: draw an exponential gap at the
// current rate; if it crosses the next rate-change boundary, restart from
// the boundary. ok is false when the rate is zero forever after now
// (no more arrivals).
func NextArrival(rng *rand.Rand, sched Schedule, now float64) (float64, bool) {
	t := now
	for guard := 0; guard < 1_000_000; guard++ {
		rate := sched.Rate(t)
		boundary, hasBoundary := sched.NextChange(t)
		if rate <= 0 {
			if !hasBoundary {
				return 0, false
			}
			t = boundary
			continue
		}
		gap := rng.ExpFloat64() / rate
		if hasBoundary && t+gap >= boundary {
			t = boundary
			continue
		}
		return t + gap, true
	}
	panic("traffic: NextArrival did not converge (pathological schedule)")
}

// Schedule exposes a time-varying per-cell arrival rate and mobile speed
// range. Time is seconds from simulation start.
type Schedule interface {
	// Rate returns λ(t), the Poisson arrival rate at time t.
	Rate(t float64) float64
	// Speed returns the mobile speed range in force at time t, as
	// (minKmh, maxKmh).
	Speed(t float64) (minKmh, maxKmh float64)
	// NextChange returns the first time strictly after t at which Rate or
	// Speed changes; ok is false when they are constant forever after t.
	NextChange(t float64) (float64, bool)
}

// Constant is a Schedule with fixed rate and speed range — the paper's
// stationary traffic/mobility scenario (§5.2).
type Constant struct {
	Lambda         float64
	MinKmh, MaxKmh float64
}

// Rate implements Schedule.
func (c Constant) Rate(float64) float64 { return c.Lambda }

// Speed implements Schedule.
func (c Constant) Speed(float64) (float64, float64) { return c.MinKmh, c.MaxKmh }

// NextChange implements Schedule; a constant schedule never changes.
func (c Constant) NextChange(float64) (float64, bool) { return 0, false }

// Validate checks for a finite rate ≥ 0 and a finite speed range with
// 0 ≤ min ≤ max; NaN fails both.
func (c Constant) Validate() error {
	if !(c.Lambda >= 0 && !math.IsInf(c.Lambda, 1)) {
		return fmt.Errorf("traffic: arrival rate %v must be finite and >= 0", c.Lambda)
	}
	if !(c.MinKmh >= 0 && c.MinKmh <= c.MaxKmh && !math.IsInf(c.MaxKmh, 1)) {
		return fmt.Errorf("traffic: speed range [%v,%v] must be finite with 0 <= min <= max", c.MinKmh, c.MaxKmh)
	}
	return nil
}

// RetryPolicy models the time-varying scenario's user behavior: "a
// blocked connection request will be re-requested with probability
// 1 − 0.1·N_ret after waiting 5 seconds, where N_ret is the number of
// times a connection request has been made" (§5.3). The zero policy
// never retries; the stationary experiments run with it.
type RetryPolicy struct {
	// WaitSeconds is the delay before a retry (paper: 5 s).
	WaitSeconds float64
	// DecayPerTry is the per-attempt retry-probability decay (paper:
	// 0.1); a non-zero policy needs it positive.
	DecayPerTry float64
}

// PaperRetry is the §5.3 retry behavior.
var PaperRetry = RetryPolicy{WaitSeconds: 5, DecayPerTry: 0.1}

// ShouldRetry decides whether a user whose request was just blocked for
// the nth time (n ≥ 1 counts all requests made so far) tries again.
func (p RetryPolicy) ShouldRetry(rng *rand.Rand, nRet int) bool {
	if p.DecayPerTry <= 0 || nRet < 1 {
		return false
	}
	prob := 1 - p.DecayPerTry*float64(nRet)
	if prob <= 0 {
		return false
	}
	return rng.Float64() < prob
}

// Validate checks policy invariants.
func (p RetryPolicy) Validate() error {
	if p == (RetryPolicy{}) {
		return nil
	}
	if p.WaitSeconds < 0 || math.IsNaN(p.WaitSeconds) {
		return fmt.Errorf("traffic: negative retry wait %v", p.WaitSeconds)
	}
	if !(p.DecayPerTry > 0) {
		return fmt.Errorf("traffic: non-positive retry decay %v", p.DecayPerTry)
	}
	return nil
}
