package cellnet

import (
	"testing"

	"cellqos/internal/mobility"
)

// benchRun measures end-to-end simulation throughput for a policy.
func benchRun(b *testing.B, policy string, load float64) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg := scenario(policy, load, 0.8, mobility.HighMobility, uint64(i+1))
		cfg.StaticReserve = 10
		n := MustNew(cfg)
		n.Run(500)
		events += n.EventsFired()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkRunStatic(b *testing.B) { benchRun(b, "static", 200) }
func BenchmarkRunAC1(b *testing.B)    { benchRun(b, "AC1", 200) }
func BenchmarkRunAC2(b *testing.B)    { benchRun(b, "AC2", 200) }
func BenchmarkRunAC3(b *testing.B)    { benchRun(b, "AC3", 200) }

func BenchmarkRunAC3Overloaded(b *testing.B) { benchRun(b, "AC3", 300) }

func BenchmarkRunAC3AllFeatures(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario("AC3", 250, 0.6, mobility.HighMobility, uint64(i+1))
		cfg.AdaptiveVideoMin = 2
		cfg.SoftOverlap = 4
		cfg.DirectionHints = true
		MustNew(cfg).Run(500)
	}
}

// BenchmarkRingSteady is the ledger's cellnet row: the paper ring under
// static reservation (no Eq. 5, no peers); each op advances the run one
// simulated second. A call's record, stream and path come from a
// recycled slot, so the steady state allocates nothing; what a run still
// allocates is growth, once: the slot pool, tables and queue at a new
// population high, and each cell's hourly buckets when they pass a
// power of two. The warm-up (120,000 s, past the 32-hour doubling) grows
// them beforehand, and the op is short, so what is left is far below a
// byte per op and the ledger's B/op reads the same at any b.N.
func BenchmarkRingSteady(b *testing.B) {
	cfg := scenario("static", 200, 0.8, mobility.HighMobility, 1)
	cfg.StaticReserve = 10
	cfg.Audit = nil
	n := MustNew(cfg)
	end := 120000.0
	n.RunUntil(end)
	fired := n.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		end++
		n.RunUntil(end)
	}
	b.ReportMetric(float64(n.EventsFired()-fired)/float64(b.N), "events/op")
}
