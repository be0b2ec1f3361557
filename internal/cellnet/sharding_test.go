package cellnet

import (
	"reflect"
	"strings"
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/sim"
	"cellqos/internal/wired"
)

// shardedScenario is scenario() with a Sharding config: latency > 0
// selects the async signaling model on the sharded kernel, latency == 0
// stays on the single heap whatever the shard count.
func shardedScenario(policy string, shards int, latency float64, seed uint64) Config {
	cfg := scenario(policy, 150, 0.8, mobility.HighMobility, seed)
	cfg.Sharding = ShardingConfig{Shards: shards, SignalingLatency: latency, ExchangePeriod: 5}
	return cfg
}

// stripTraces zeroes the map identity noise so Results compare with
// reflect.DeepEqual (no traces are configured in these scenarios).
func stripTraces(r *Result) *Result {
	r.Traces = nil
	return r
}

// TestInstantSignalingIgnoresShardCount: instant signaling needs one
// total event order, so a shard count without a signaling latency selects
// nothing — the run stays on the single heap and every statistic equals
// the unsharded run's.
func TestInstantSignalingIgnoresShardCount(t *testing.T) {
	t.Parallel()
	ref := stripTraces(MustNew(shardedScenario("AC3", 0, 0, 7)).Run(1500))
	n := MustNew(shardedScenario("AC3", 8, 0, 7))
	if _, ok := n.kernel.(*sim.Simulator); !ok {
		t.Fatalf("Shards: 8 at zero latency runs on %T, want *sim.Simulator", n.kernel)
	}
	if got := stripTraces(n.Run(1500)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("Shards: 8 at zero latency diverged from Shards: 0:\n got %+v\nwant %+v", got, ref)
	}
}

// TestAsyncShardCountInvariance: under the async signaling model the
// result is a function of the scenario, not of the partitioning — per
// cell/connection RNG streams plus the keyed mailbox make every shard
// count produce identical Results, including a repeat run at the same
// shard count.
func TestAsyncShardCountInvariance(t *testing.T) {
	t.Parallel()
	ref := stripTraces(MustNew(shardedScenario("AC3", 1, 0.5, 7)).Run(1500))
	if ref.Total.Requested == 0 || ref.Total.HandOffs == 0 {
		t.Fatalf("async reference run generated no traffic: %+v", ref.Total)
	}
	for _, shards := range []int{1, 2, 3, 5, 8} {
		got := stripTraces(MustNew(shardedScenario("AC3", shards, 0.5, 7)).Run(1500))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("async shards=%d diverged from 1-shard async run:\n got %+v\nwant %+v", shards, got, ref)
		}
	}
}

// TestAsyncConservation: connections admitted equal connections
// accounted for, modulo hand-offs still in flight between shards when
// the run stops (the barrier audit checks the same law continuously).
func TestAsyncConservation(t *testing.T) {
	t.Parallel()
	n := MustNew(shardedScenario("AC3", 3, 0.5, 2))
	res := n.Run(2000)
	admitted := res.Total.Requested - res.Total.Blocked
	accounted := res.Total.Completed + res.Total.Dropped + res.Total.Exited + uint64(n.ActiveConnections())
	var inFlight uint64
	for _, st := range n.tables {
		inFlight += st.sentHO - st.recvHO
	}
	if admitted != accounted+inFlight {
		t.Fatalf("conservation violated: admitted %d, accounted %d, in flight %d", admitted, accounted, inFlight)
	}
	if res.Total.Exited != 0 {
		t.Fatalf("ring run had %d coverage exits", res.Total.Exited)
	}
}

// TestAsyncWarmupDegradation: before the first exchange replies land,
// admission tests must fall back (neighbor state unknown) rather than
// fail — the degradation counters record that window.
func TestAsyncWarmupDegradation(t *testing.T) {
	t.Parallel()
	res := MustNew(shardedScenario("AC2", 2, 0.5, 3)).Run(1500)
	if res.DegradedBrCalcs == 0 {
		t.Fatal("async warmup produced no degraded B_r calculations; mirror should start cold")
	}
	if res.Total.BrCalcs == 0 {
		t.Fatal("no B_r calculations at all")
	}
}

// TestAsyncRejectsUnsupportedFeatures pins the Validate gate: models
// that require synchronous cross-cell state cannot run under the async
// plane.
func TestAsyncRejectsUnsupportedFeatures(t *testing.T) {
	t.Parallel()
	base := func() Config { return shardedScenario("AC3", 2, 0.5, 1) }
	// Each case names the word its rejection must carry, so a reordered
	// switch cannot pass by rejecting a config for the wrong feature.
	cases := []struct {
		name, want string
		mut        func(*Config)
	}{
		{"backbone", "backbone", func(c *Config) {
			c.Backbone = wired.StarOfMSCs(c.Topology, 2, 1000, 5000, wired.FullReroute)
		}},
		{"mobspec", "mobility-specification", func(c *Config) { c.Admission = core.MustPolicy("mob-spec") }},
		{"soft", "soft hand-off", func(c *Config) { c.SoftOverlap = 1 }},
		{"faults", "fault injection", func(c *Config) { c.FaultDrop = 0.1 }},
		{"skipdrops", "SkipDroppedDepartures", func(c *Config) { c.SkipDroppedDepartures = true }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: async config unexpectedly validated", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected for the wrong reason: %v (want mention of %q)", tc.name, err, tc.want)
		}
	}
	// More shards than cells cannot be partitioned.
	cfg := base()
	cfg.Sharding.Shards = 11
	if _, err := New(cfg); err == nil {
		t.Error("11 shards on a 10-cell ring unexpectedly validated")
	}
	// Exchange period below the signaling latency cannot be serviced.
	cfg = base()
	cfg.Sharding.ExchangePeriod = 0.1
	if _, err := New(cfg); err == nil {
		t.Error("exchange period < latency unexpectedly validated")
	}
}

// TestPartitionBoundaryRouting runs async on a wrapped hex grid so
// hand-offs cross row-aligned shard boundaries in both directions.
func TestPartitionBoundaryRouting(t *testing.T) {
	t.Parallel()
	n := MustNew(hexScenario("AC3", 6, 6, 3, 0.5, 150))
	res := n.Run(1500)
	if res.Total.HandOffs == 0 {
		t.Fatal("no hand-offs on hex grid")
	}
	var crossed uint64
	for _, st := range n.tables {
		crossed += st.sentHO
	}
	if crossed == 0 {
		t.Fatal("no hand-off messages crossed the mailbox")
	}
}
