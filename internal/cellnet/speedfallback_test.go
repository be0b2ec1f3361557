package cellnet

import (
	"testing"

	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/traffic"
)

func TestScheduleWithoutSpeedsUsesModelRange(t *testing.T) {
	t.Parallel()
	// A bare Constant{Lambda} (no speed fields) must not freeze mobiles:
	// the mobility model's own range applies.
	top := scenario("AC3", 0, 1, mobility.HighMobility, 0).Topology
	cfg := PaperBase()
	cfg.Topology = top
	cfg.Admission = core.MustPolicy("AC3")
	cfg.Mix = traffic.Mix{VoiceRatio: 1}
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: mobility.HighMobility}
	cfg.Schedule = traffic.Constant{Lambda: traffic.RateForLoad(150, cfg.Mix, cfg.MeanLifetime)}
	cfg.Seed = 81
	res := MustNew(cfg).Run(1000)
	if res.Total.HandOffs == 0 {
		t.Fatal("zero-speed schedule froze the mobiles")
	}
}
