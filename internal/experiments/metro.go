package experiments

import (
	"bytes"
	"fmt"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/runner"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// metroShardCounts is the shard sweep the experiment compares. The
// scenario must validate at every count, so the largest one bounds the
// minimum grid size.
var metroShardCounts = []int{1, 2, 8}

// metroConfig builds the metro-scale async scenario: a wrapped hex grid
// under AC3 with the distributed signaling plane modeled explicitly —
// every hand-off and peer exchange pays a real inter-BS latency and the
// kernel executes the cell clusters concurrently.
func metroConfig(shards int, seed uint64) cellnet.Config {
	top := topology.Hex(8, 8, true)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = core.MustPolicy("AC3")
	cfg.Mix = traffic.Mix{VoiceRatio: 0.8}
	cfg.Mobility = &mobility.HexWalk{Top: top, DiameterKm: 1, Speed: mobility.HighMobility, Persistence: 0.8}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(200, cfg.Mix, cfg.MeanLifetime),
		MinKmh: mobility.HighMobility.MinKmh, MaxKmh: mobility.HighMobility.MaxKmh,
	}
	cfg.Seed = seed
	cfg.Sharding = cellnet.ShardingConfig{
		Shards:           shards,
		SignalingLatency: 0.25,
		ExchangePeriod:   5,
	}
	return cfg
}

// MetroSharded runs one metro-scale scenario — a 64-cell wrapped hex
// grid with asynchronous inter-BS signaling — once per kernel shard
// count, and reports the QoS metrics side by side. The rows must be
// identical: under the async model the partitioning is an execution
// detail, so any divergence between shard counts is a determinism bug,
// which the experiment checks explicitly.
func MetroSharded(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "metro-sharded",
		Title: "Metro-scale sharded kernel: shard-count invariance under async signaling",
		PaperClaim: "The paper's Fig. 1 architecture is distributed — each BS runs its own " +
			"admission control and learns neighbor state over a signaling network. Modeling " +
			"that delay explicitly (rather than zero-latency shared memory) lets the " +
			"simulation itself be partitioned: expectation is identical QoS metrics at any " +
			"shard count, with P_CB/P_HD near the synchronous values since the exchange " +
			"period, not the signaling latency, dominates information staleness.",
	}
	scens := make([]runner.Scenario, len(metroShardCounts))
	for i, sc := range metroShardCounts {
		scens[i] = scenario(fmt.Sprintf("%s/shards%d", rep.ID, sc), metroConfig(sc, opt.Seed), opt.Duration)
	}
	res, err := runResults(opt, scens)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("shards", "PCB", "PHD", "hand-offs", "blocked", "N_calc", "degraded-Br")
	for i, sc := range metroShardCounts {
		r := res[i]
		tb.AddRowStrings(fmt.Sprintf("%d", sc),
			stats.FormatProb(r.PCB), stats.FormatProb(r.PHD),
			fmt.Sprintf("%d", r.Total.HandOffs), fmt.Sprintf("%d", r.Total.Blocked),
			fmtF(r.NCalc), fmt.Sprintf("%d", r.DegradedBrCalcs))
	}
	rep.Tables = append(rep.Tables, LabeledTable{Label: "per shard count (rows must be identical)", Table: tb})

	// The invariance claim, checked rather than eyeballed: all runs must
	// serialize to the same bytes.
	verdict := "identical"
	ref := resultBytes(res[0])
	for i := 1; i < len(res); i++ {
		if !bytes.Equal(resultBytes(res[i]), ref) {
			verdict = fmt.Sprintf("DIVERGED at shards=%d", metroShardCounts[i])
			break
		}
	}
	vt := stats.NewTable("check", "verdict")
	vt.AddRowStrings("shard-count invariance", verdict)
	rep.Tables = append(rep.Tables, LabeledTable{Label: "determinism", Table: vt})
	return rep, nil
}

// resultBytes canonicalizes the fields of a Result that the invariance
// check compares (everything the report prints, plus the full per-cell
// counter set).
func resultBytes(r *cellnet.Result) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%v %v %v %+v\n", r.PCB, r.PHD, r.NCalc, r.Total)
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%d %+v %v %v %v %v\n", c.ID, c.Counters, c.Test, c.Br, c.AvgBr, c.AvgBu)
	}
	return b.Bytes()
}
