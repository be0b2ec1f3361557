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

// Config describes one simulation scenario. The embedded core.Config
// configures every cell's engine; engineConfig overrides its Degree from
// the topology and its Lock with nil, so those two fields are ignored.
type Config struct {
	core.Config
	// Topology is the cell adjacency graph.
	Topology *topology.Topology
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
	// AdaptiveVideoMin, when non-zero, enables the §1 integration with
	// adaptive-QoS schemes (refs [6,8]): video connections become elastic
	// between this many BUs (1–4) and the full 4 — cells downgrade them
	// to absorb hand-offs and upgrade them when bandwidth frees;
	// reservation uses minimum QoS. Zero means rigid video.
	AdaptiveVideoMin int
	// MobSpecHorizon sizes the "mob-spec" baseline's mobility
	// specification: a new connection pledges its bandwidth in every
	// cell within this many hops (default 2). Ignored by other policies.
	MobSpecHorizon int
	// SoftOverlap, when positive, enables the §7 CDMA soft hand-off
	// extension: a mobile crossing into a full cell keeps its old-cell
	// link for up to this many seconds (macrodiversity in the overlap
	// region) and the hand-off completes as soon as the new cell frees
	// capacity; it drops only when the window expires. Zero means a
	// hard hand-off.
	SoftOverlap float64
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
	// FaultDrop, when positive, models a degraded signaling plane inside
	// the in-process simulation (the distributed deployment injects real
	// link faults via internal/faults): each peer information exchange
	// independently fails with this probability (request and any
	// response lost; the caller sees an unreachable neighbor), drawn
	// from a dedicated deterministic RNG stream, and the engines degrade
	// per Fallback instead of silently under-reserving.
	FaultDrop float64
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
	if !(s.SignalingLatency >= 0) {
		return fmt.Errorf("cellnet: signaling latency %v must be >= 0", s.SignalingLatency)
	}
	if !(s.ExchangePeriod >= 0) {
		return fmt.Errorf("cellnet: exchange period %v must be >= 0", s.ExchangePeriod)
	}
	if s.Async() && s.ExchangePeriod > 0 && s.ExchangePeriod < s.SignalingLatency {
		return fmt.Errorf("cellnet: exchange period %v shorter than signaling latency %v",
			s.ExchangePeriod, s.SignalingLatency)
	}
	return nil
}

// Validate checks scenario invariants.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("cellnet: nil topology")
	}
	if c.Mobility == nil {
		return fmt.Errorf("cellnet: nil mobility model")
	}
	if c.Schedule == nil {
		return fmt.Errorf("cellnet: nil schedule")
	}
	// Models and schedules that declare parameters check them here, so a
	// bad value fails the config instead of panicking mid-run.
	for _, part := range []any{c.Mobility, c.Schedule} {
		if v, ok := part.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return err
			}
		}
	}
	if c.Mix.VoiceRatio < 0 || c.Mix.VoiceRatio > 1 {
		return fmt.Errorf("cellnet: voice ratio %v", c.Mix.VoiceRatio)
	}
	if !(c.MeanLifetime > 0) {
		return fmt.Errorf("cellnet: mean lifetime %v", c.MeanLifetime)
	}
	if err := c.Retry.Validate(); err != nil {
		return err
	}
	if c.AdaptiveVideoMin < 0 || c.AdaptiveVideoMin > 4 {
		return fmt.Errorf("cellnet: video minimum %d outside [1,4] (0 = rigid)", c.AdaptiveVideoMin)
	}
	if !(c.SoftOverlap >= 0) {
		return fmt.Errorf("cellnet: soft hand-off overlap %v must be >= 0", c.SoftOverlap)
	}
	if !(c.FaultDrop >= 0 && c.FaultDrop <= 1) {
		return fmt.Errorf("cellnet: fault drop probability %v outside [0,1]", c.FaultDrop)
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
		case c.SoftOverlap > 0:
			return fmt.Errorf("cellnet: soft hand-off unsupported with async sharding")
		case c.FaultDrop > 0:
			return fmt.Errorf("cellnet: fault injection unsupported with async sharding")
		case c.SkipDroppedDepartures:
			return fmt.Errorf("cellnet: SkipDroppedDepartures unsupported with async sharding")
		}
	}
	return nil
}

// engineConfig derives a cell's engine configuration: the embedded
// one, with the cell's degree and no lock (cellnet is single-threaded).
func (c Config) engineConfig(id topology.CellID) core.Config {
	ec := c.Config
	ec.Degree = c.Topology.Degree(id)
	ec.Lock = nil
	return ec
}

// PaperBase returns a config pre-filled with the paper's §5.1 constants
// (capacity 100 BU, P_HD,target 0.01, T_start 1 s, N_quad 100, mean
// lifetime 120 s, stationary estimation). Callers fill in topology,
// policy, mobility, mix and schedule.
func PaperBase() Config {
	return Config{
		Config: core.Config{
			Capacity:   100,
			PHDTarget:  0.01,
			TStart:     1,
			Estimation: predict.StationaryConfig(),
		},
		MeanLifetime: traffic.MeanLifetime,
	}
}
