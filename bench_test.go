package cellqos

// One benchmark per reproduced table and figure. Each runs the
// corresponding experiment at reduced scale (shorter simulated time,
// fewer load points) so `go test -bench=.` finishes in minutes; use
// cmd/experiments for paper-scale regeneration. BenchmarkRunnerParallel
// additionally compares the scenario runner at one worker vs all cores
// on a reduced Fig. 7 sweep.

import (
	"fmt"
	"runtime"
	"testing"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/experiments"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// benchOpts shrinks experiment runs to benchmark scale.
func benchOpts() experiments.Options {
	return experiments.Options{
		Duration:      600,
		TraceDuration: 400,
		Days:          1,
		Loads:         []float64{100, 300},
		Seed:          1,
	}
}

func benchExperiment(b *testing.B, run func(experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	opt := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkRunnerParallel measures the runner's parallel wall-clock gain:
// the same reduced Fig. 7 sweep (12 scenario points) at one worker and at
// GOMAXPROCS workers. The reports are byte-identical either way (see
// TestReportDeterministicAcrossWorkers); only the wall time differs.
func BenchmarkRunnerParallel(b *testing.B) {
	workers := []int{1, runtime.GOMAXPROCS(0)}
	for _, par := range workers {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			opt := benchOpts()
			opt.Parallel = par
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := experiments.Fig7(opt)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Tables) == 0 {
					b.Fatal("experiment produced no tables")
				}
			}
		})
	}
}

// BenchmarkFig7 regenerates Fig. 7: P_CB/P_HD vs load under static
// G=10 reservation.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, experiments.Fig7) }

// BenchmarkFig8 regenerates Fig. 8: P_CB/P_HD vs load under AC3.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, experiments.Fig8) }

// BenchmarkFig9 regenerates Fig. 9: average B_r and B_u vs load.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, experiments.Fig9) }

// BenchmarkFig10 regenerates Fig. 10: T_est and B_r traces.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, experiments.Fig10) }

// BenchmarkFig11 regenerates Fig. 11: cumulative P_HD traces.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, experiments.Fig11) }

// BenchmarkFig12 regenerates Fig. 12: AC1/AC2/AC3 comparison.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, experiments.Fig12) }

// BenchmarkFig13 regenerates Fig. 13: N_calc vs load.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, experiments.Fig13) }

// BenchmarkTable2 regenerates Table 2: per-cell status, AC1 vs AC3.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, experiments.Table2) }

// BenchmarkTable3 regenerates Table 3: one-directional mobiles.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, experiments.Table3) }

// BenchmarkFig14 regenerates Fig. 14: the two-day time-varying scenario
// (one day at bench scale).
func BenchmarkFig14(b *testing.B) { benchExperiment(b, experiments.Fig14) }

// BenchmarkBaselineExpDwell measures the §6 exponential-dwell baseline
// comparison.
func BenchmarkBaselineExpDwell(b *testing.B) { benchExperiment(b, experiments.BaselineExpDwell) }

// BenchmarkBaselineMobSpec measures the §6 mobility-specification
// baseline comparison.
func BenchmarkBaselineMobSpec(b *testing.B) { benchExperiment(b, experiments.BaselineMobSpec) }

// BenchmarkExtensionHints measures the §7 ITS/GPS path-informed
// reservation extension.
func BenchmarkExtensionHints(b *testing.B) { benchExperiment(b, experiments.ExtensionHints) }

// BenchmarkExtensionWired measures the §2/§7 wired-reservation extension.
func BenchmarkExtensionWired(b *testing.B) { benchExperiment(b, experiments.ExtensionWired) }

// BenchmarkExtensionCDMA measures the §7 CDMA soft hand-off / soft
// capacity extension.
func BenchmarkExtensionCDMA(b *testing.B) { benchExperiment(b, experiments.ExtensionCDMA) }

// BenchmarkIntegrationAdaptiveQoS measures the §1 adaptive-QoS
// integration.
func BenchmarkIntegrationAdaptiveQoS(b *testing.B) {
	benchExperiment(b, experiments.IntegrationAdaptiveQoS)
}

// BenchmarkAblationStep measures the §4.2 T_est step-policy ablation.
func BenchmarkAblationStep(b *testing.B) { benchExperiment(b, experiments.AblationStep) }

// BenchmarkAblationNQuad measures the N_quad sensitivity ablation.
func BenchmarkAblationNQuad(b *testing.B) { benchExperiment(b, experiments.AblationNQuad) }

// BenchmarkAblationDropped measures the dropped-departure recording
// ablation.
func BenchmarkAblationDropped(b *testing.B) { benchExperiment(b, experiments.AblationDropped) }

// metroWorkload is the BenchmarkShardedMetro scenario: a 10,000-cell
// wrapped hex metro under AC3 with the asynchronous signaling model
// (0.25 s inter-BS latency), the workload the sharded kernel exists
// for. Results are identical at every shard count (the async model is
// shard-count invariant); only wall time changes.
func metroWorkload(shards int) cellnet.Config {
	top := topology.Hex(100, 100, true)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = core.MustPolicy("AC3")
	cfg.Mix = traffic.Mix{VoiceRatio: 0.8}
	cfg.Mobility = &mobility.HexWalk{Top: top, DiameterKm: 1, Speed: mobility.HighMobility, Persistence: 0.8}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(150, cfg.Mix, cfg.MeanLifetime),
		MinKmh: mobility.HighMobility.MinKmh, MaxKmh: mobility.HighMobility.MaxKmh,
	}
	cfg.Seed = 1
	cfg.Sharding = cellnet.ShardingConfig{Shards: shards, SignalingLatency: 0.25, ExchangePeriod: 5}
	return cfg
}

// BenchmarkShardedMetro runs the metro workload at 1, 2 and 8 kernel
// shards. It is not a ledger row: run it with -memprofile to attribute
// the allocations of bench/'s metro-async workload (DESIGN.md §13),
// whose two-shard scaling bench/ also measures.
func BenchmarkShardedMetro(b *testing.B) {
	for _, shards := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n, err := cellnet.New(metroWorkload(shards))
				if err != nil {
					b.Fatal(err)
				}
				res := n.Run(30)
				if res.Total.Requested == 0 {
					b.Fatal("metro run generated no traffic")
				}
			}
		})
	}
}
