// Downtown: the paper's future-work setting — a two-dimensional
// hexagonal cellular layout (Fig. 2(b)) over a city center. Mobiles walk
// the hex grid with direction persistence (drivers mostly continue
// straight, sometimes turn at intersections) and a fraction never move
// (pedestrians indoors).
//
// The example compares AC1, AC2 and AC3 at heavy load, reproducing the
// paper's §5 conclusions on a 2-D topology: all three block comparably,
// AC1 lets P_HD escape the target, and AC3 matches AC2's protection at a
// fraction of its signaling cost (N_calc).
package main

import (
	"fmt"
	"log"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

func main() {
	top := topology.Hex(5, 5, true) // 25 cells, torus to avoid border artifacts

	fmt.Println("downtown: 5x5 hexagonal grid, mixed vehicular/stationary mobiles")
	fmt.Println("offered load 250 BUs/cell (2.5x over-loaded), Rvo = 0.8")
	fmt.Println()

	tb := stats.NewTable("policy", "PCB", "PHD", "Ncalc", "avgBr")
	for _, policy := range []string{"AC1", "AC2", "AC3"} {
		cfg := cellnet.PaperBase()
		cfg.Topology = top
		cfg.Admission = core.MustPolicy(policy)
		cfg.Mix = traffic.Mix{VoiceRatio: 0.8}
		cfg.Mobility = &mobility.HexWalk{
			Top: top, DiameterKm: 1,
			Speed:          mobility.SpeedRange{MinKmh: 30, MaxKmh: 70}, // city speeds
			Persistence:    0.7,                                         // mostly straight, turns at junctions
			StationaryProb: 0.2,                                         // pedestrians who stay put
		}
		cfg.Schedule = traffic.Constant{
			Lambda: traffic.RateForLoad(250, cfg.Mix, cfg.MeanLifetime),
			MinKmh: 30, MaxKmh: 70,
		}
		cfg.Seed = 11

		net, err := cellnet.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := net.Run(8000)
		tb.AddRowStrings(policy,
			stats.FormatProb(res.PCB), stats.FormatProb(res.PHD),
			fmt.Sprintf("%.2f", res.NCalc), fmt.Sprintf("%.1f", res.AvgBr))
	}
	fmt.Print(tb.String())
	fmt.Println()
	fmt.Println("On a degree-6 topology AC2 pays ~7 B_r calculations per admission")
	fmt.Println("test; AC3 recomputes only for suspect neighbors, staying near 1-2")
	fmt.Println("while still holding P_HD at the 0.01 target.")
}
