// Command cellsim runs one cellular-network simulation scenario from
// flags and prints system-wide and per-cell results.
//
// Examples:
//
//	cellsim -policy ac3 -load 300 -rvo 1.0 -speed high -duration 20000
//	cellsim -policy static -reserve 10 -load 150 -rvo 0.5
//	cellsim -topology line -cells 10 -direction forward -policy ac1
//	cellsim -topology hex -rows 4 -cols 5 -policy ac3 -persistence 0.8
//	cellsim -schedule daily -days 2 -retry -policy ac3
//	cellsim -policy ac3 -adaptive-video-min 1 -soft-overlap 5 -margin 8
//	cellsim -policy exp-dwell -dwell-mean 35 -dwell-window 30
//	cellsim -policy mob-spec -spec-horizon 5
//	cellsim -backbone star -bs-link 40 -msc-link 120
//	cellsim -policy ac3 -reps 8 -parallel 4 -timeout 5m
//	cellsim -policy ac3 -audit 32
//	cellsim -topology hex -rows 8 -cols 8 -shards 4 -signaling-latency 0.25
//
// With -reps N the scenario is replicated with seeds seed..seed+N-1 on
// -parallel workers (internal/runner) and per-replication plus mean
// results are printed; -timeout cancels in-flight runs. With -audit N
// the runtime invariant checker (internal/audit) verifies bandwidth
// conservation on every Nth event and at the final snapshot; a
// violation aborts the run with a structured diagnostic.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cellqos/internal/audit"
	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/predict"
	"cellqos/internal/runner"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
	"cellqos/internal/wired"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// CLI in-process: args are the command-line arguments (without the
// program name) and the exit status is returned instead of calling
// os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cellsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policyName  = fs.String("policy", "ac3", "admission policy name, any case: "+strings.Join(core.PolicyNames(), "|"))
		reserve     = fs.Int("reserve", 10, "static reservation G in BUs (policy=static)")
		load        = fs.Float64("load", 150, "offered load per cell in BUs (Eq. 7)")
		rvo         = fs.Float64("rvo", 1.0, "voice ratio R_vo (voice=1 BU, video=4 BU)")
		speed       = fs.String("speed", "high", "mobility: high (80-120 km/h) | low (40-60 km/h) | min,max")
		topoName    = fs.String("topology", "ring", "topology: ring|line|hex")
		cells       = fs.Int("cells", 10, "number of cells (ring/line)")
		rows        = fs.Int("rows", 4, "hex rows")
		cols        = fs.Int("cols", 5, "hex cols")
		wrap        = fs.Bool("wrap", true, "wrap hex grid into a torus")
		persistence = fs.Float64("persistence", 0.8, "hex walk direction persistence")
		direction   = fs.String("direction", "random", "1-D travel direction: random|forward|backward")
		capacity    = fs.Int("capacity", 100, "cell link capacity in BUs")
		target      = fs.Float64("target", 0.01, "P_HD target")
		duration    = fs.Float64("duration", 20000, "simulated seconds (constant schedule)")
		schedName   = fs.String("schedule", "constant", "traffic schedule: constant|daily")
		days        = fs.Int("days", 2, "days to simulate (schedule=daily)")
		retry       = fs.Bool("retry", false, "enable the §5.3 blocked-request retry model")
		seed        = fs.Uint64("seed", 1, "RNG seed")
		perCell     = fs.Bool("per-cell", true, "print the per-cell table")
		reps        = fs.Int("reps", 1, "replications with seeds seed..seed+reps-1")
		parallel    = fs.Int("parallel", 0, "replication workers (0 = GOMAXPROCS)")
		timeout     = fs.Duration("timeout", 0, "cancel in-flight runs after this wall time (0 = none)")
		auditEvery  = fs.Int("audit", 0, "verify runtime invariants every Nth event (0 = off, 1 = every event)")

		dwellMean   = fs.Float64("dwell-mean", 35, "exp-dwell baseline: assumed mean dwell τ (s)")
		dwellWindow = fs.Float64("dwell-window", 30, "exp-dwell baseline: fixed estimation window T (s)")
		specHorizon = fs.Int("spec-horizon", 2, "mob-spec baseline: pledge cells within this many hops")
		adaptiveMin = fs.Int("adaptive-video-min", 0, "adaptive QoS: video minimum in BUs (0 = rigid)")
		softOverlap = fs.Float64("soft-overlap", 0, "CDMA soft hand-off overlap window (s; 0 = off)")
		margin      = fs.Int("margin", 0, "CDMA soft-capacity hand-off margin in BUs")
		hints       = fs.Bool("hints", false, "ITS/GPS direction hints (§7)")
		backboneK   = fs.String("backbone", "", "wired backbone: star|mesh (empty = none)")
		bsLink      = fs.Int("bs-link", 200, "backbone: BS uplink capacity (BUs)")
		mscLink     = fs.Int("msc-link", 1000, "backbone: MSC/gateway or inter-BS link capacity (BUs)")
		anchor      = fs.Bool("anchor", false, "backbone: anchor-extend re-routing instead of full re-route")

		faultDrop     = fs.Float64("fault-drop", 0, "probability each peer information exchange fails (0 = healthy signaling)")
		faultFallback = fs.String("fault-fallback", "decay", "degradation policy for unreachable neighbors: decay|guard|zero")

		shards     = fs.Int("shards", 0, "event-kernel shards; takes effect with -signaling-latency > 0 (instant signaling always runs on the single heap)")
		sigLatency = fs.Float64("signaling-latency", 0, "one-way inter-BS signaling latency in seconds (0 = synchronous; >0 enables the async model)")
		exchange   = fs.Float64("exchange-period", 0, "async model: peer state exchange period in seconds (default 1)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cellsim: "+format+"\n", a...)
		return 2
	}
	if !(*load >= 0) {
		return errf("-load %v: the offered load must be >= 0", *load)
	}
	if !(*rvo >= 0 && *rvo <= 1) {
		return errf("-rvo %v: the voice ratio must lie in [0, 1]", *rvo)
	}

	cfg := cellnet.PaperBase()
	cfg.Capacity = *capacity
	cfg.PHDTarget = *target
	cfg.StaticReserve = *reserve
	cfg.Seed = *seed
	if *auditEvery > 0 {
		cfg.Audit = &audit.Checker{EveryN: *auditEvery}
	}
	mode, err := core.ParseFallbackMode(*faultFallback)
	if err != nil {
		return errf("-fault-fallback: %v", err)
	}
	cfg.Fallback = core.Fallback{Mode: mode}
	cfg.FaultDrop = *faultDrop

	// Policy names match case-insensitively (-policy ac3 and -policy AC3
	// both parse). The baselines' knobs are set whatever the policy:
	// only exp-dwell reads the dwell pair, only mob-spec the horizon.
	pol, err := core.PolicyByName(*policyName)
	if err != nil {
		return errf("%v", err)
	}
	cfg.Admission = pol
	cfg.ExpDwellMean = *dwellMean
	cfg.ExpDwellWindow = *dwellWindow
	cfg.MobSpecHorizon = *specHorizon
	cfg.AdaptiveVideoMin = *adaptiveMin
	cfg.SoftOverlap = *softOverlap
	cfg.HandOffMargin = *margin
	cfg.DirectionHints = *hints
	cfg.Sharding = cellnet.ShardingConfig{
		Shards:           *shards,
		SignalingLatency: *sigLatency,
		ExchangePeriod:   *exchange,
	}

	var sr mobility.SpeedRange
	switch strings.ToLower(*speed) {
	case "high":
		sr = mobility.HighMobility
	case "low":
		sr = mobility.LowMobility
	default:
		if n, err := fmt.Sscanf(*speed, "%f,%f", &sr.MinKmh, &sr.MaxKmh); n != 2 || err != nil {
			return errf("bad -speed %q (want high, low, or min,max)", *speed)
		}
	}

	var dir mobility.DirectionPolicy
	switch strings.ToLower(*direction) {
	case "random":
		dir = mobility.RandomDirection
	case "forward":
		dir = mobility.ForwardOnly
	case "backward":
		dir = mobility.BackwardOnly
	default:
		return errf("bad -direction %q", *direction)
	}

	switch strings.ToLower(*topoName) {
	case "ring":
		if *cells < 3 {
			return errf("-cells %d: a ring needs at least 3 cells", *cells)
		}
		cfg.Topology = topology.Ring(*cells)
		cfg.Mobility = &mobility.Linear{Top: cfg.Topology, DiameterKm: 1, Speed: sr, Direction: dir}
	case "line":
		if *cells < 2 {
			return errf("-cells %d: a line needs at least 2 cells", *cells)
		}
		cfg.Topology = topology.Line(*cells)
		cfg.Mobility = &mobility.Linear{Top: cfg.Topology, DiameterKm: 1, Speed: sr, Direction: dir}
	case "hex":
		least := 1
		if *wrap {
			least = 3
		}
		if *rows < least || *cols < least {
			return errf("-rows %d -cols %d: a hex grid (wrap=%v) needs at least %d of each", *rows, *cols, *wrap, least)
		}
		cfg.Topology = topology.Hex(*rows, *cols, *wrap)
		cfg.Mobility = &mobility.HexWalk{Top: cfg.Topology, DiameterKm: 1, Speed: sr, Persistence: *persistence}
	default:
		return errf("unknown topology %q", *topoName)
	}

	cfg.Mix = traffic.Mix{VoiceRatio: *rvo}
	end := *duration
	switch strings.ToLower(*schedName) {
	case "constant":
		if !(end > 0) {
			return errf("-duration %v: the simulated time must be > 0", end)
		}
		cfg.Schedule = traffic.Constant{
			Lambda: traffic.RateForLoad(*load, cfg.Mix, cfg.MeanLifetime),
			MinKmh: sr.MinKmh, MaxKmh: sr.MaxKmh,
		}
	case "daily":
		if *days < 1 {
			return errf("-days %d: the run must simulate at least one day", *days)
		}
		cfg.Schedule = traffic.PaperDay(cfg.Mix, cfg.MeanLifetime)
		cfg.Estimation = predict.DailyConfig()
		end = float64(*days) * traffic.SecondsPerDay
	default:
		return errf("unknown schedule %q", *schedName)
	}
	if *retry {
		cfg.Retry = traffic.PaperRetry
	}
	if *backboneK != "" {
		strategy := wired.FullReroute
		if *anchor {
			strategy = wired.AnchorExtend
		}
		switch strings.ToLower(*backboneK) {
		case "star":
			cfg.Backbone = wired.StarOfMSCs(cfg.Topology, (cfg.Topology.NumCells()+4)/5, *bsLink, *mscLink, strategy)
		case "mesh":
			cfg.Backbone = wired.MeshOfBSs(cfg.Topology, *mscLink, *bsLink, strategy)
		default:
			return errf("unknown backbone %q", *backboneK)
		}
	}

	if err := cfg.Validate(); err != nil {
		return errf("%v", err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	scen := runner.Scenario{Key: "cellsim", Config: cfg, Duration: end, Reps: *reps}
	r := &runner.Runner{Parallel: *parallel}
	points, err := r.Run(ctx, []runner.Scenario{scen})
	if err == nil {
		err = runner.FirstError(points)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cellsim: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "policy=%s topology=%s load=%.0f Rvo=%.2f speed=[%.0f,%.0f]km/h duration=%.0fs\n",
		pol.Name(), cfg.Topology.Kind(), *load, *rvo, sr.MinKmh, sr.MaxKmh, end)

	if *reps > 1 {
		printReps(stdout, points, *seed)
		return 0
	}
	res := points[0].Result
	fmt.Fprintf(stdout, "requests=%d blocked=%d hand-offs=%d dropped=%d completed=%d exited=%d\n",
		res.Total.Requested, res.Total.Blocked, res.Total.HandOffs, res.Total.Dropped,
		res.Total.Completed, res.Total.Exited)
	fmt.Fprintf(stdout, "PCB=%s PHD=%s (target %.3g) Ncalc=%.3f avgBr=%.2f avgBu=%.2f exchanges=%d\n",
		stats.FormatProb(res.PCB), stats.FormatProb(res.PHD), *target,
		res.NCalc, res.AvgBr, res.AvgBu, res.Exchanges)
	if cfg.AdaptiveVideoMin > 0 {
		fmt.Fprintf(stdout, "adaptive QoS: avg degraded %.2f BU, %d downgrades, %d upgrades\n",
			res.AvgDegraded, res.QoSDowngrades, res.QoSUpgrades)
	}
	if cfg.SoftOverlap > 0 {
		fmt.Fprintf(stdout, "soft hand-off: %d saved in overlap, %d expired\n", res.SoftSaved, res.SoftExpired)
	}
	if cfg.FaultDrop > 0 {
		fmt.Fprintf(stdout, "signaling faults: %d exchanges failed, %d degraded B_r calcs, %d degraded admissions\n",
			res.PeerFaults, res.DegradedBrCalcs, res.DegradedAdmissions)
	}
	if cfg.Backbone != nil {
		fmt.Fprintf(stdout, "backbone: %d blocked, %d dropped, %d re-routes, %d BUs in use\n",
			res.WiredBlocked, res.WiredDropped, res.WiredReroutes, res.WiredUsed)
	}

	if *perCell {
		tb := stats.NewTable("Cell", "PCB", "PHD", "Test", "Br", "Bu", "avgBr", "avgBu")
		for _, c := range res.Cells {
			tb.AddRowStrings(
				fmt.Sprintf("%d", c.ID+1),
				stats.FormatProb(c.PCB), stats.FormatProb(c.PHD),
				fmt.Sprintf("%.0f", c.Test), fmt.Sprintf("%.2f", c.Br),
				fmt.Sprintf("%d", c.Bu),
				fmt.Sprintf("%.2f", c.AvgBr), fmt.Sprintf("%.2f", c.AvgBu))
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tb.String())
	}
	return 0
}

// printReps prints per-replication results and their means.
func printReps(w io.Writer, points []runner.PointResult, baseSeed uint64) {
	tb := stats.NewTable("seed", "PCB", "PHD", "Ncalc", "avgBr", "avgBu", "events", "wall(s)")
	var meanPCB, meanPHD float64
	var work time.Duration
	for _, p := range points {
		res := p.Result
		tb.AddRowStrings(
			fmt.Sprintf("%d", baseSeed+uint64(p.Rep)),
			stats.FormatProb(res.PCB), stats.FormatProb(res.PHD),
			fmt.Sprintf("%.3f", res.NCalc),
			fmt.Sprintf("%.2f", res.AvgBr), fmt.Sprintf("%.2f", res.AvgBu),
			fmt.Sprintf("%d", p.Events), fmt.Sprintf("%.1f", p.Wall.Seconds()))
		meanPCB += res.PCB
		meanPHD += res.PHD
		work += p.Wall
	}
	n := float64(len(points))
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "mean over %d reps: PCB=%s PHD=%s (%.1f CPU-seconds of simulation)\n",
		len(points), stats.FormatProb(meanPCB/n), stats.FormatProb(meanPHD/n), work.Seconds())
}
