package experiments

import (
	"fmt"

	"cellqos/internal/cellnet"
	"cellqos/internal/plot"
	"cellqos/internal/stats"
)

// stationaryRvos is the paper's voice-ratio sweep for Figs. 7–9.
var stationaryRvos = []float64{1.0, 0.8, 0.5}

// mobilityGroups orders the paper's two speed ranges as grid groups.
var mobilityGroups = []bool{true, false}

// mobilityRvoProbTables fills rep with the Fig. 7/8 output shape: per
// mobility group, a (load, Rvo, PCB, PHD) table plus a log-probability
// chart, from a loadGrid result indexed [mobility][rvo][load].
func mobilityRvoProbTables(rep *Report, res [][][]*cellnet.Result, loads []float64, figName string) {
	for g, high := range mobilityGroups {
		tb := stats.NewTable("load", "Rvo", "PCB", "PHD")
		sc := newCollector()
		for s, rvo := range stationaryRvos {
			for li, load := range loads {
				r := res[g][s][li]
				tb.AddRowStrings(fmtF(load), fmtF(rvo), stats.FormatProb(r.PCB), stats.FormatProb(r.PHD))
				sc.add(fmt.Sprintf("PCB Rvo=%.1f", rvo), load, r.PCB)
				sc.add(fmt.Sprintf("PHD Rvo=%.1f", rvo), load, r.PHD)
			}
		}
		label := fmt.Sprintf("(%s user mobility)", mobilityName(high))
		rep.Tables = append(rep.Tables, LabeledTable{Label: label, Table: tb})
		rep.Charts = append(rep.Charts, sc.into(probChart(figName+" "+label)))
	}
}

// Fig7 regenerates Figure 7: P_CB and P_HD versus offered load under
// static reservation of G = 10 BUs, for R_vo ∈ {1.0, 0.8, 0.5} and both
// mobility ranges.
func Fig7(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig7",
		Title: "P_CB and P_HD vs offered load: static reservation, G = 10 BUs",
		PaperClaim: "10-BU static reservation keeps P_HD ≤ 0.01 for R_vo = 1.0 but " +
			"violates the target for R_vo = 0.5; for R_vo = 0.8 it holds under low " +
			"mobility but fails under high mobility at heavy load. P_CB grows with load.",
	}
	res, err := loadGrid(opt, rep.ID, len(mobilityGroups), len(stationaryRvos),
		func(g, s int, load float64) cellnet.Config {
			cfg := stationaryConfig("static", load, stationaryRvos[s], mobilityGroups[g], opt.Seed)
			cfg.StaticReserve = 10
			return cfg
		})
	if err != nil {
		return nil, err
	}
	mobilityRvoProbTables(rep, res, sortedLoads(opt), "Fig. 7 static G=10")
	return rep, nil
}

// Fig8 regenerates Figure 8: the same sweep under AC3; P_HD must stay at
// or below the 0.01 target everywhere.
func Fig8(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig8",
		Title: "P_CB and P_HD vs offered load: AC3",
		PaperClaim: "P_HD ≤ P_HD,target = 0.01 across the whole load range, both " +
			"mobility ranges and all voice ratios; the P_CB–P_HD gap narrows as the " +
			"load decreases (less bandwidth is reserved when less is needed).",
	}
	res, err := loadGrid(opt, rep.ID, len(mobilityGroups), len(stationaryRvos),
		func(g, s int, load float64) cellnet.Config {
			return stationaryConfig("AC3", load, stationaryRvos[s], mobilityGroups[g], opt.Seed)
		})
	if err != nil {
		return nil, err
	}
	mobilityRvoProbTables(rep, res, sortedLoads(opt), "Fig. 8 AC3")
	return rep, nil
}

// Fig9 regenerates Figure 9: average target reservation bandwidth B_r
// and average used bandwidth B_u versus load under AC3.
func Fig9(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig9",
		Title: "Average target reservation B_r and used bandwidth B_u vs load: AC3",
		PaperClaim: "B_r increases monotonically with load and saturates in the " +
			"over-loaded region; more video (smaller R_vo) and higher mobility both " +
			"raise B_r; B_u moves inversely to B_r.",
	}
	res, err := loadGrid(opt, rep.ID, len(mobilityGroups), len(stationaryRvos),
		func(g, s int, load float64) cellnet.Config {
			return stationaryConfig("AC3", load, stationaryRvos[s], mobilityGroups[g], opt.Seed)
		})
	if err != nil {
		return nil, err
	}
	loads := sortedLoads(opt)
	for g, high := range mobilityGroups {
		tb := stats.NewTable("load", "Rvo", "avgBr", "avgBu")
		sc := newCollector()
		for s, rvo := range stationaryRvos {
			for li, load := range loads {
				r := res[g][s][li]
				tb.AddRowStrings(fmtF(load), fmtF(rvo),
					fmt.Sprintf("%.2f", r.AvgBr), fmt.Sprintf("%.2f", r.AvgBu))
				sc.add(fmt.Sprintf("Br Rvo=%.1f", rvo), load, r.AvgBr)
				sc.add(fmt.Sprintf("Bu Rvo=%.1f", rvo), load, r.AvgBu)
			}
		}
		label := fmt.Sprintf("(%s user mobility)", mobilityName(high))
		rep.Tables = append(rep.Tables, LabeledTable{Label: label, Table: tb})
		ch := plot.New("Fig. 9 AC3 "+label, "offered load (BU)", "bandwidth (BU)")
		rep.Charts = append(rep.Charts, sc.into(ch))
	}
	return rep, nil
}

// comparedPolicies is the Fig. 12/13 admission-scheme comparison set.
var comparedPolicies = []string{"AC1", "AC2", "AC3"}

// Fig12 regenerates Figure 12: P_CB and P_HD versus load for AC1, AC2
// and AC3 under high mobility, for R_vo = 1.0 and 0.5.
func Fig12(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig12",
		Title: "P_CB and P_HD vs offered load: AC1 vs AC2 vs AC3 (high mobility)",
		PaperClaim: "The three schemes have nearly identical P_CB (AC1 slightly " +
			"lowest). AC2 and AC3 keep P_HD bounded; AC1 exceeds the 0.01 target in " +
			"the heavily over-loaded region (L > 150) but stays below ~0.02.",
	}
	rvos := []float64{1.0, 0.5}
	res, err := loadGrid(opt, rep.ID, len(rvos), len(comparedPolicies),
		func(g, s int, load float64) cellnet.Config {
			return stationaryConfig(comparedPolicies[s], load, rvos[g], true, opt.Seed)
		})
	if err != nil {
		return nil, err
	}
	loads := sortedLoads(opt)
	for g, rvo := range rvos {
		tb := stats.NewTable("load", "policy", "PCB", "PHD")
		sc := newCollector()
		for s, policy := range comparedPolicies {
			for li, load := range loads {
				r := res[g][s][li]
				tb.AddRowStrings(fmtF(load), policy, stats.FormatProb(r.PCB), stats.FormatProb(r.PHD))
				sc.add("PCB "+policy, load, r.PCB)
				sc.add("PHD "+policy, load, r.PHD)
			}
		}
		label := fmt.Sprintf("(Rvo = %.1f)", rvo)
		rep.Tables = append(rep.Tables, LabeledTable{Label: label, Table: tb})
		rep.Charts = append(rep.Charts, sc.into(probChart("Fig. 12 "+label)))
	}
	return rep, nil
}

// Fig13 regenerates Figure 13: average number of B_r calculations per
// admission test (N_calc) versus load.
func Fig13(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig13",
		Title: "Average N_calc per admission test vs offered load",
		PaperClaim: "N_calc = 1 for AC1 and 3 for AC2 at every load (1-D ring). " +
			"AC3 stays at 1 under light load and rises from roughly L = 80, " +
			"remaining below 1.5 — less than half of AC2.",
	}
	res, err := loadGrid(opt, rep.ID, len(mobilityGroups), len(comparedPolicies),
		func(g, s int, load float64) cellnet.Config {
			return stationaryConfig(comparedPolicies[s], load, 1.0, mobilityGroups[g], opt.Seed)
		})
	if err != nil {
		return nil, err
	}
	loads := sortedLoads(opt)
	for g, high := range mobilityGroups {
		tb := stats.NewTable("load", "policy", "Ncalc")
		sc := newCollector()
		for s, policy := range comparedPolicies {
			for li, load := range loads {
				r := res[g][s][li]
				tb.AddRowStrings(fmtF(load), policy, fmt.Sprintf("%.3f", r.NCalc))
				sc.add(policy, load, r.NCalc)
			}
		}
		label := fmt.Sprintf("(%s user mobility)", mobilityName(high))
		rep.Tables = append(rep.Tables, LabeledTable{Label: label, Table: tb})
		ch := plot.New("Fig. 13 "+label, "offered load (BU)", "avg B_r calculations per admission")
		rep.Charts = append(rep.Charts, sc.into(ch))
	}
	return rep, nil
}
