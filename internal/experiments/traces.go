package experiments

import (
	"fmt"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/plot"
	"cellqos/internal/runner"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// tracedRun executes the Fig. 10/11 scenario: AC3, offered load 300,
// R_vo = 1.0, high mobility, tracing cells <5> and <6> (IDs 4 and 5)
// from the cold start.
func tracedRun(key string, opt Options) (*cellnet.Result, error) {
	cfg := stationaryConfig("AC3", 300, 1.0, true, opt.Seed)
	cfg.TraceCells = []topology.CellID{4, 5}
	return runOne(opt, scenario(key, cfg, opt.TraceDuration))
}

// Fig10 regenerates Figure 10: T_est and B_r over time in cells <5> and
// <6> for the over-loaded high-mobility run.
func Fig10(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	res, err := tracedRun("fig10/trace", opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig10",
		Title: "T_est and B_r vs time (load 300, Rvo 1.0, high mobility, AC3)",
		PaperClaim: "T_est climbs from T_start = 1 s as cold-start drops occur, then " +
			"oscillates around a working point instead of settling; B_r fluctuates " +
			"between over- and under-reservation, tracking T_est and neighbor state.",
	}
	const step = 50
	for _, id := range []topology.CellID{4, 5} {
		tr := res.Traces[id]
		tb := stats.NewTable("t(s)", "Test(s)", "Br(BU)")
		testVals := seriesGrid(&tr.Test, opt.TraceDuration, step)
		brVals := seriesGrid(&tr.Br, opt.TraceDuration, step)
		grid := make([]float64, len(testVals))
		for i := range testVals {
			grid[i] = float64(i) * step
			tb.AddRowStrings(fmt.Sprintf("%.0f", grid[i]),
				fmt.Sprintf("%.0f", testVals[i]), fmt.Sprintf("%.2f", brVals[i]))
		}
		label := fmt.Sprintf("(cell <%d>)", id+1)
		rep.Tables = append(rep.Tables, LabeledTable{Label: label, Table: tb})
		ch := plot.New("Fig. 10 "+label, "time (s)", "T_est (s) / B_r (BU)")
		ch.Add("Test", grid, testVals)
		ch.Add("Br", grid, brVals)
		rep.Charts = append(rep.Charts, ch)
	}
	return rep, nil
}

// Fig11 regenerates Figure 11: cumulative P_HD over time for the same
// run and cells.
func Fig11(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	res, err := tracedRun("fig11/trace", opt)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig11",
		Title: "Cumulative P_HD vs time (load 300, Rvo 1.0, high mobility, AC3)",
		PaperClaim: "P_HD peaks above the 0.01 target early (no estimation history, " +
			"T_est = T_start), then settles below it as quadruplets accumulate, T_est " +
			"adapts, and the averaging effect kicks in.",
	}
	const step = 50
	tb := stats.NewTable("t(s)", "PHD cell<5>", "PHD cell<6>")
	g5 := seriesGrid(&res.Traces[4].PHD, opt.TraceDuration, step)
	g6 := seriesGrid(&res.Traces[5].PHD, opt.TraceDuration, step)
	grid := make([]float64, len(g5))
	for i := range g5 {
		grid[i] = float64(i) * step
		tb.AddRowStrings(fmt.Sprintf("%.0f", grid[i]),
			stats.FormatProb(g5[i]), stats.FormatProb(g6[i]))
	}
	rep.Tables = append(rep.Tables, LabeledTable{Label: "", Table: tb})
	ch := plot.New("Fig. 11 cumulative P_HD", "time (s)", "P_HD (log)")
	ch.LogY = true
	ch.FloorY = 1e-4
	ch.Add("cell <5>", grid, g5)
	ch.Add("cell <6>", grid, g6)
	rep.Charts = append(rep.Charts, ch)
	return rep, nil
}

// perCellTable renders a Table 2/3 style end-of-run status table.
func perCellTable(res *cellnet.Result) *stats.Table {
	tb := stats.NewTable("Cell", "PCB", "PHD", "Test", "Br", "Bu")
	for _, c := range res.Cells {
		tb.AddRowStrings(
			fmt.Sprintf("%d", c.ID+1), // the paper numbers cells from 1
			stats.FormatProb(c.PCB),
			stats.FormatProb(c.PHD),
			fmt.Sprintf("%.0f", c.Test),
			fmt.Sprintf("%.2f", c.Br),
			fmt.Sprintf("%d", c.Bu),
		)
	}
	return tb
}

// Table2 regenerates Table 2: per-cell status at the end of over-loaded
// runs (load 300, R_vo = 1.0, high mobility) under AC1 and AC3.
func Table2(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "table2",
		Title: "Per-cell status at end of run (load 300, Rvo 1.0, high mobility)",
		PaperClaim: "Under AC1 performance oscillates roughly every other cell — " +
			"alternating near-zero and near-one P_CB with unbounded P_HD in the " +
			"starved cells. AC3 is balanced: similar P_CB everywhere and P_HD ≤ 0.01 " +
			"in every cell.",
	}
	policies := []string{"AC1", "AC3"}
	scens := make([]runner.Scenario, len(policies))
	for i, policy := range policies {
		scens[i] = scenario(fmt.Sprintf("table2/%s", policy),
			stationaryConfig(policy, 300, 1.0, true, opt.Seed), opt.Duration)
	}
	res, err := runResults(opt, scens)
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		rep.Tables = append(rep.Tables, LabeledTable{
			Label: fmt.Sprintf("(%s)", policy),
			Table: perCellTable(res[i]),
		})
	}
	return rep, nil
}

// Table3 regenerates Table 3: the one-directional scenario — all mobiles
// travel from cell <1> toward cell <10> on an open line (borders
// disconnected), load 300, R_vo = 1.0, high mobility.
func Table3(opt Options) (*Report, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "table3",
		Title: "Per-cell status, one-directional mobiles on an open line (load 300)",
		PaperClaim: "Cell <1> receives no hand-offs (P_HD = 0) and under AC1 accepts " +
			"everything (P_CB = 0), overloading its downstream neighbors in an " +
			"every-other-cell pattern with over-target P_HD. AC3 blocks some new " +
			"connections in <1> and balances the line while meeting the target.",
	}
	policies := []string{"AC1", "AC3"}
	scens := make([]runner.Scenario, len(policies))
	for i, policy := range policies {
		top := topology.Line(10)
		cfg := cellnet.PaperBase()
		cfg.Topology = top
		cfg.Admission = core.MustPolicy(policy)
		cfg.Mix = traffic.Mix{VoiceRatio: 1.0}
		cfg.Mobility = &mobility.Linear{
			Top: top, DiameterKm: 1,
			Speed: mobility.HighMobility, Direction: mobility.ForwardOnly,
		}
		cfg.Schedule = traffic.Constant{
			Lambda: traffic.RateForLoad(300, cfg.Mix, cfg.MeanLifetime),
			MinKmh: 80, MaxKmh: 120,
		}
		cfg.Seed = opt.Seed
		scens[i] = scenario(fmt.Sprintf("table3/%s", policy), cfg, opt.Duration)
	}
	res, err := runResults(opt, scens)
	if err != nil {
		return nil, err
	}
	for i, policy := range policies {
		rep.Tables = append(rep.Tables, LabeledTable{
			Label: fmt.Sprintf("(%s)", policy),
			Table: perCellTable(res[i]),
		})
	}
	return rep, nil
}
