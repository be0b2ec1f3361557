package experiments

import (
	"fmt"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/stats"
)

// ExtensionFaults sweeps signaling-plane fault probability against the
// paper's QoS metrics under AC3: every peer information exchange fails
// independently with probability p (drawn from a dedicated RNG stream,
// so the traffic and mobility processes are identical across variants),
// and the engines degrade per the configured core.Fallback policy
// instead of silently treating dead neighbors as absent or infinitely
// healthy. The fault-free variant doubles as a control: its counters
// must all be zero and its metrics match the unfaulted simulation.
func ExtensionFaults(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "extension-faults",
		Title: "Robustness: signaling faults and graceful degradation, AC3",
		PaperClaim: "The paper's distributed admission control assumes reliable BS-to-BS " +
			"signaling; it never evaluates losing it. Expectation: with conservative " +
			"fallbacks (last-known decay, guard fraction) P_HD degrades gracefully as the " +
			"fault rate rises, at some P_CB cost from fail-closed admission; the legacy " +
			"zero fallback under-reserves and lets P_HD drift above target instead.",
	}
	type variant struct {
		name string
		drop float64
		mode core.FallbackMode
	}
	variants := []variant{
		{"fault-free", 0, core.FallbackDecay},
		{"drop 5% decay", 0.05, core.FallbackDecay},
		{"drop 20% decay", 0.20, core.FallbackDecay},
		{"drop 20% guard", 0.20, core.FallbackGuard},
		{"drop 20% zero", 0.20, core.FallbackZero},
		{"drop 50% decay", 0.50, core.FallbackDecay},
	}
	loads := []float64{200, 300}
	res, err := variantSweep(opt, rep.ID, len(variants), loads,
		func(v int, load float64) cellnet.Config {
			cfg := stationaryConfig("AC3", load, 0.5, true, opt.Seed)
			cfg.FaultDrop = variants[v].drop
			cfg.Fallback = core.Fallback{Mode: variants[v].mode}
			return cfg
		})
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("variant", "load", "PCB", "PHD", "peer-faults", "degraded-Br", "degraded-admits")
	for v, vr := range variants {
		for li, load := range loads {
			r := res[v][li]
			tb.AddRowStrings(vr.name, fmtF(load),
				stats.FormatProb(r.PCB), stats.FormatProb(r.PHD),
				fmt.Sprintf("%d", r.PeerFaults),
				fmt.Sprintf("%d", r.DegradedBrCalcs),
				fmt.Sprintf("%d", r.DegradedAdmissions))
		}
	}
	rep.Tables = append(rep.Tables, LabeledTable{Label: "", Table: tb})
	return rep, nil
}
