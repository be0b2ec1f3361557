// Package cellnet assembles the full cellular-network simulation: it
// wires the discrete-event kernel (internal/sim), topology, mobility and
// traffic substrates to one core.Engine per cell, processes new-connection
// requests, hand-offs, drops and completions, and collects the paper's
// evaluation metrics.
package cellnet

import (
	"fmt"

	"cellqos/internal/audit"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/predict"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
	"cellqos/internal/wired"
)

// Config describes one simulation scenario.
type Config struct {
	// Topology is the cell adjacency graph.
	Topology *topology.Topology
	// Capacity is each cell's wireless link capacity in BUs (A6: 100).
	Capacity int
	// Admission is the admission-control scheme under test (typically
	// core.MustPolicy or core.PolicyByName). Required.
	Admission core.AdmissionPolicy
	// StaticReserve is G for the "static" policy.
	StaticReserve int
	// PHDTarget is P_HD,target (0.01 in the paper).
	PHDTarget float64
	// TStart is the initial T_est (1 s in the paper).
	TStart float64
	// Step is the T_est adjustment policy (UnitStep in the paper).
	Step core.StepPolicy
	// Estimation configures the hand-off estimation functions.
	Estimation predict.Config
	// Calendar optionally routes weekday/weekend patterns.
	Calendar predict.Calendar
	// ExpDwellMean and ExpDwellWindow parameterize the "exp-dwell"
	// baseline (assumed mean dwell τ and fixed estimation window T).
	ExpDwellMean   float64
	ExpDwellWindow float64
	// Mobility mints mobile movement paths.
	Mobility mobility.Model
	// Mix is the voice/video class mixture (A3).
	Mix traffic.Mix
	// MeanLifetime is the mean connection lifetime in seconds (A5: 120).
	MeanLifetime float64
	// Schedule drives per-cell arrival rates and speed ranges over time.
	Schedule traffic.Schedule
	// Retry is the blocked-request retry behavior (§5.3).
	Retry traffic.RetryPolicy
	// Seed makes runs reproducible.
	Seed uint64
	// Backbone, when non-nil, adds wired-link bandwidth reservation (the
	// paper's §2/§7 extension): every connection also routes and reserves
	// a path from its serving BS to a gateway; hand-offs re-route it.
	// Wired shortfalls block new connections and drop hand-offs on top of
	// the wireless admission tests.
	Backbone *wired.Backbone
	// AdaptiveQoS enables the §1 integration with adaptive-QoS schemes
	// (refs [6,8]): video connections become elastic between VideoMinBUs
	// and the full 4 BUs — cells downgrade them to absorb hand-offs and
	// upgrade them when bandwidth frees; reservation uses minimum QoS.
	AdaptiveQoS AdaptiveQoSConfig
	// MobSpecHorizon sizes the "mob-spec" baseline's mobility
	// specification: a new connection pledges its bandwidth in every
	// cell within this many hops (default 2). Ignored by other policies.
	MobSpecHorizon int
	// HandOffMargin models CDMA soft capacity (§7): hand-offs may use up
	// to Capacity+HandOffMargin BUs.
	HandOffMargin int
	// SoftHandOff enables the §7 CDMA soft hand-off extension: a mobile
	// crossing into a full cell keeps its old-cell link for up to
	// OverlapSeconds (macrodiversity in the overlap region) and the
	// hand-off completes as soon as the new cell frees capacity; it
	// drops only when the window expires.
	SoftHandOff SoftHandOffConfig
	// DirectionHints enables the paper's §7 ITS/GPS extension: every
	// mobile's next cell is known from route guidance, so Eq. 5 only
	// estimates the hand-off time and concentrates reservation on the
	// known destination.
	DirectionHints bool
	// SkipDroppedDepartures, when set, excludes departures whose hand-off
	// was dropped from the estimation functions. The default (false)
	// records them: the movement happened even though the connection
	// died, and the estimator models mobility, not admission.
	SkipDroppedDepartures bool
	// Faults models a degraded signaling plane inside the in-process
	// simulation (the distributed deployment injects real link faults via
	// internal/faults): each peer information exchange independently
	// fails with probability Faults.Drop, drawn from a dedicated
	// deterministic RNG stream, and the engines degrade per
	// Faults.Fallback instead of silently under-reserving.
	Faults FaultConfig
	// Audit, when non-nil, re-verifies the bandwidth ledgers, counters,
	// pledges and wired reservations after simulation events (sampled per
	// audit.Checker.EveryN) and in full at every Snapshot; a violation
	// panics with a structured report. Nil — the default — costs nothing.
	// A Checker is stateless, so one may be shared across the concurrent
	// Networks of a runner sweep.
	Audit *audit.Checker
	// TraceCells lists cells whose T_est, B_r and cumulative P_HD are
	// recorded over time (Figs. 10–11).
	TraceCells []topology.CellID
	// Sharding selects the signaling model and, under delayed signaling,
	// partitions the run's cells across event-kernel shards
	// (internal/sim/shard) for metro-scale runs. The zero value — instant
	// signaling — is the classic single-heap simulation.
	Sharding ShardingConfig
}

// ShardingConfig selects the signaling model the one cellnet event
// pipeline runs under, and with it the event kernel: instant (zero
// latency, the default) on the single-heap sim.Simulator, or, with a
// positive latency, the delayed model that makes genuinely parallel
// execution deterministic, on the windowed shard.Kernel.
type ShardingConfig struct {
	// Shards is the number of kernel shards under delayed signaling (0
	// means 1). Instant signaling needs one total event order, so it
	// always runs on the single heap and its results are independent of
	// this field by construction.
	Shards int
	// SignalingLatency, when positive, runs the pipeline under the
	// delayed (asynchronous) signaling model: every cross-cell
	// interaction (peer state exchange and hand-off control) travels as
	// a timestamped message with this one-way delay in seconds, cells
	// and connections draw from RNG streams of their own instead of the
	// run's shared one, and shards execute concurrently under a
	// conservative lookahead equal to this latency. Results are
	// byte-identical at any shard count by construction, but differ
	// from the zero-latency model: peer state is refreshed by periodic
	// exchange rounds instead of synchronous queries, and a hand-off is
	// decided one latency after the old cell let go. Requires a plain
	// scenario — no Backbone, MobSpec, soft hand-off, fault injection,
	// or SkipDroppedDepartures: each needs synchronous knowledge of
	// another cell (DESIGN.md §13).
	SignalingLatency float64
	// ExchangePeriod is the interval between peer-exchange rounds in
	// the asynchronous model (each round refreshes every cell's view of
	// its neighbors). Defaults to 1 s when zero.
	ExchangePeriod float64
}

// Async reports whether the asynchronous signaling model is selected.
func (s ShardingConfig) Async() bool { return s.SignalingLatency > 0 }

// NumShards returns the effective shard count (≥ 1): Shards under
// delayed signaling, 1 under instant signaling.
func (s ShardingConfig) NumShards() int {
	if !s.Async() || s.Shards < 1 {
		return 1
	}
	return s.Shards
}

// exchangeEvery returns the effective peer-exchange period.
func (s ShardingConfig) exchangeEvery() float64 {
	if s.ExchangePeriod > 0 {
		return s.ExchangePeriod
	}
	return 1
}

// Validate checks sharding invariants in isolation; cross-field checks
// against the rest of the scenario live in Config.Validate.
func (s ShardingConfig) Validate() error {
	if s.Shards < 0 {
		return fmt.Errorf("cellnet: negative shard count %d", s.Shards)
	}
	if s.SignalingLatency < 0 {
		return fmt.Errorf("cellnet: negative signaling latency %v", s.SignalingLatency)
	}
	if s.ExchangePeriod < 0 {
		return fmt.Errorf("cellnet: negative exchange period %v", s.ExchangePeriod)
	}
	if s.Async() && s.ExchangePeriod > 0 && s.ExchangePeriod < s.SignalingLatency {
		return fmt.Errorf("cellnet: exchange period %v shorter than signaling latency %v",
			s.ExchangePeriod, s.SignalingLatency)
	}
	return nil
}

// FaultConfig parameterizes in-simulation signaling faults.
type FaultConfig struct {
	Enabled bool
	// Drop is the probability that one peer exchange fails (both the
	// request and any response lost; the caller sees an unreachable
	// neighbor).
	Drop float64
	// Fallback selects what an unreachable neighbor contributes to B_r
	// (core degradation policy; zero value = last-known with decay).
	Fallback core.Fallback
}

// Validate checks fault-model invariants.
func (f FaultConfig) Validate() error {
	if !f.Enabled {
		return nil
	}
	if f.Drop < 0 || f.Drop > 1 {
		return fmt.Errorf("cellnet: fault drop probability %v outside [0,1]", f.Drop)
	}
	return f.Fallback.Validate()
}

// AdaptiveQoSConfig parameterizes the adaptive-QoS integration.
type AdaptiveQoSConfig struct {
	Enabled bool
	// VideoMinBUs is the minimum acceptable video bandwidth (1–4).
	VideoMinBUs int
}

// Validate checks adaptive-QoS invariants.
func (a AdaptiveQoSConfig) Validate() error {
	if !a.Enabled {
		return nil
	}
	if a.VideoMinBUs < 1 || a.VideoMinBUs > 4 {
		return fmt.Errorf("cellnet: video minimum %d outside [1,4]", a.VideoMinBUs)
	}
	return nil
}

// SoftHandOffConfig parameterizes the CDMA soft hand-off extension.
type SoftHandOffConfig struct {
	Enabled bool
	// OverlapSeconds is how long the mobile can hold both links (paper's
	// "communicate via two adjacent BSs simultaneously for a while").
	OverlapSeconds float64
}

// softHandOffRetry is how often, in seconds, a pending soft hand-off
// re-tests the new cell.
const softHandOffRetry = 0.5

// Validate checks soft hand-off invariants.
func (s SoftHandOffConfig) Validate() error {
	if !s.Enabled {
		return nil
	}
	if s.OverlapSeconds <= 0 {
		return fmt.Errorf("cellnet: soft hand-off needs positive overlap, got %v", s.OverlapSeconds)
	}
	return nil
}

// Validate checks scenario invariants.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("cellnet: nil topology")
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("cellnet: capacity %d", c.Capacity)
	}
	if c.Mobility == nil {
		return fmt.Errorf("cellnet: nil mobility model")
	}
	if c.Schedule == nil {
		return fmt.Errorf("cellnet: nil schedule")
	}
	if c.Mix.VoiceRatio < 0 || c.Mix.VoiceRatio > 1 {
		return fmt.Errorf("cellnet: voice ratio %v", c.Mix.VoiceRatio)
	}
	if c.MeanLifetime <= 0 {
		return fmt.Errorf("cellnet: mean lifetime %v", c.MeanLifetime)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if err := c.SoftHandOff.Validate(); err != nil {
		return err
	}
	if err := c.AdaptiveQoS.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	for _, id := range c.TraceCells {
		if !c.Topology.Valid(id) {
			return fmt.Errorf("cellnet: trace cell %d out of range", id)
		}
	}
	if c.Backbone != nil && c.Backbone.Cells() < c.Topology.NumCells() {
		return fmt.Errorf("cellnet: backbone maps %d cells, topology has %d",
			c.Backbone.Cells(), c.Topology.NumCells())
	}
	if err := c.Sharding.Validate(); err != nil {
		return err
	}
	if c.Sharding.NumShards() > c.Topology.NumCells() {
		return fmt.Errorf("cellnet: %d shards for %d cells", c.Sharding.NumShards(), c.Topology.NumCells())
	}
	if err := c.engineConfig(0).Validate(); err != nil {
		return err
	}
	if c.Sharding.Async() {
		// The asynchronous model owns every cross-cell interaction; the
		// extensions below reach across cells synchronously (multi-hop
		// pledges, dual-cell links, shared fault streams) or condition a
		// departure record on a remote admission outcome, none of which
		// survive a signaling delay.
		switch {
		case c.Backbone != nil:
			return fmt.Errorf("cellnet: wired backbone unsupported with async sharding")
		case c.Admission.Traits().MobSpec:
			return fmt.Errorf("cellnet: mobility-specification policies unsupported with async sharding")
		case c.SoftHandOff.Enabled:
			return fmt.Errorf("cellnet: soft hand-off unsupported with async sharding")
		case c.Faults.Enabled:
			return fmt.Errorf("cellnet: fault injection unsupported with async sharding")
		case c.SkipDroppedDepartures:
			return fmt.Errorf("cellnet: SkipDroppedDepartures unsupported with async sharding")
		}
	}
	return nil
}

// engineConfig derives the per-cell engine configuration.
func (c Config) engineConfig(id topology.CellID) core.Config {
	return core.Config{
		Capacity:       c.Capacity,
		Degree:         c.Topology.Degree(id),
		Admission:      c.Admission,
		StaticReserve:  c.StaticReserve,
		PHDTarget:      c.PHDTarget,
		TStart:         c.TStart,
		Step:           c.Step,
		Estimation:     c.Estimation,
		Calendar:       c.Calendar,
		ExpDwellMean:   c.ExpDwellMean,
		ExpDwellWindow: c.ExpDwellWindow,
		Fallback:       c.Faults.Fallback,
		HandOffMargin:  c.HandOffMargin,
	}
}

// PaperBase returns a config pre-filled with the paper's §5.1 constants
// (capacity 100 BU, P_HD,target 0.01, T_start 1 s, N_quad 100, mean
// lifetime 120 s, stationary estimation). Callers fill in topology,
// policy, mobility, mix and schedule.
func PaperBase() Config {
	return Config{
		Capacity:     100,
		PHDTarget:    0.01,
		TStart:       1,
		Estimation:   predict.StationaryConfig(),
		MeanLifetime: traffic.MeanLifetime,
	}
}
