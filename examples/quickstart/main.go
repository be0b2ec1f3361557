// Quickstart: build the paper's default scenario — a 10-cell ring with
// AC3 predictive/adaptive reservation — run it for an hour of simulated
// time, and print the connection-level QoS results.
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
	// The paper's §5.1 setting: 10 cells of 1 km on a ring, 100 BUs per
	// cell, voice-only traffic, high user mobility (80–120 km/h).
	top := topology.Ring(10)
	cfg := cellnet.PaperBase() // capacity 100, P_HD target 0.01, T_start 1 s
	cfg.Topology = top
	cfg.Admission = core.MustPolicy("AC3")
	cfg.Mix = traffic.Mix{VoiceRatio: 1.0}
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: mobility.HighMobility}

	// Offered load of 150 BUs per cell — 1.5× over-loaded (Eq. 7).
	load := 150.0
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(load, cfg.Mix, cfg.MeanLifetime),
		MinKmh: 80, MaxKmh: 120,
	}
	cfg.Seed = 42

	net, err := cellnet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res := net.Run(3600) // one simulated hour

	fmt.Printf("offered load %.0f BUs/cell for %.0f s\n", load, res.Duration)
	fmt.Printf("new-connection blocking  P_CB = %s\n", stats.FormatProb(res.PCB))
	fmt.Printf("hand-off dropping        P_HD = %s (target %.2f)\n",
		stats.FormatProb(res.PHD), cfg.PHDTarget)
	fmt.Printf("hand-offs %d, dropped %d; avg reserved %.1f BUs, avg used %.1f BUs\n",
		res.Total.HandOffs, res.Total.Dropped, res.AvgBr, res.AvgBu)

	if res.PHD <= cfg.PHDTarget {
		fmt.Println("→ the adaptive reservation met the hand-off QoS target")
	} else {
		fmt.Println("→ target exceeded (short run / cold start); try a longer run")
	}
}
