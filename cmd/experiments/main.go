// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig8 [-duration 20000] [-seed 1] [-loads 60,100,150,200,250,300]
//	experiments -run all [-out results/] [-parallel 8] [-timeout 10m] [-progress]
//	experiments -run table2 -audit 64
//
// Each experiment prints its qualitative paper claim followed by the
// regenerated data as aligned tables; with -out, CSV files are written
// alongside. Scenario points fan out over -parallel workers (default
// GOMAXPROCS) with identical output at any worker count; -timeout
// cancels in-flight sweeps and -progress reports per-point throughput.
// With -audit N every simulation verifies runtime invariants
// (internal/audit) on every Nth event and at its final snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cellqos/internal/audit"
	"cellqos/internal/clock"
	"cellqos/internal/experiments"
	"cellqos/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// CLI in-process: args are the command-line arguments (without the
// program name) and the exit status is returned instead of calling
// os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		runID      = fs.String("run", "", "experiment ID to run, or 'all'")
		duration   = fs.Float64("duration", 20000, "stationary run length (simulated seconds)")
		traceDur   = fs.Float64("trace-duration", 2000, "fig10/11 run length (simulated seconds)")
		days       = fs.Int("days", 2, "fig14 run length (days)")
		seed       = fs.Uint64("seed", 1, "RNG seed")
		loads      = fs.String("loads", "", "comma-separated offered loads (default 60,100,150,200,250,300)")
		out        = fs.String("out", "", "directory to write CSV files into")
		plotFlag   = fs.Bool("plot", false, "render figure experiments as terminal charts")
		parallel   = fs.Int("parallel", 0, "scenario workers (0 = GOMAXPROCS); results are identical at any value")
		timeout    = fs.Duration("timeout", 0, "cancel in-flight sweeps after this wall time (0 = none)")
		progress   = fs.Bool("progress", false, "report per-point progress on stderr")
		auditEvery = fs.Int("audit", 0, "verify runtime invariants every Nth event (0 = off, 1 = every event)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *runID == "" {
		fmt.Fprintln(stderr, "experiments: -run <id>|all or -list required")
		fs.Usage()
		return 2
	}

	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return 2
	}
	if !(*duration > 0 && !math.IsInf(*duration, 1)) {
		return errf("-duration %v: the simulated time must be finite and > 0", *duration)
	}
	if !(*traceDur > 0 && !math.IsInf(*traceDur, 1)) {
		return errf("-trace-duration %v: the simulated time must be finite and > 0", *traceDur)
	}
	if *days < 1 {
		return errf("-days %d: the run must simulate at least one day", *days)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opt := experiments.Options{
		Duration:      *duration,
		TraceDuration: *traceDur,
		Days:          *days,
		Seed:          *seed,
		Parallel:      *parallel,
		Context:       ctx,
	}
	if *auditEvery > 0 {
		opt.Audit = &audit.Checker{EveryN: *auditEvery}
	}
	if *progress {
		opt.Sink = runner.SinkFunc(func(p runner.Progress) {
			if p.Point.Err != nil {
				fmt.Fprintf(stderr, "  [%d/%d] %s: %v\n", p.Done, p.Total, p.Point.Key, p.Point.Err)
				return
			}
			fmt.Fprintf(stderr, "  [%d/%d] %s: %.1fs wall, %.0f events/s\n",
				p.Done, p.Total, p.Point.Key, p.Point.Wall.Seconds(), p.EventsPerSec())
		})
	}
	if *loads != "" {
		for _, part := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return errf("-loads: bad load %q: %v", part, err)
			}
			if !(v >= 0 && !math.IsInf(v, 1)) {
				return errf("-loads %v: every offered load must be finite and >= 0", v)
			}
			opt.Loads = append(opt.Loads, v)
		}
	}

	var todo []experiments.Experiment
	if *runID == "all" {
		todo = experiments.All()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "experiments: unknown experiment %q (try -list)\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	wall := clock.Wall{}
	for _, e := range todo {
		start := wall.Now()
		rep, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stdout, "=== %s — %s ===\n", rep.ID, rep.Title)
		fmt.Fprintf(stdout, "paper: %s\n\n", rep.PaperClaim)
		for _, lt := range rep.Tables {
			if lt.Label != "" {
				fmt.Fprintln(stdout, lt.Label)
			}
			fmt.Fprintln(stdout, lt.Table.String())
			if *out != "" {
				if err := writeCSV(*out, rep.ID, lt); err != nil {
					fmt.Fprintf(stderr, "experiments: %v\n", err)
					return 1
				}
			}
		}
		if *plotFlag {
			for _, ch := range rep.Charts {
				fmt.Fprintln(stdout, ch.Render())
			}
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", rep.ID, wall.Since(start).Seconds())
	}
	return 0
}

func writeCSV(dir, id string, lt experiments.LabeledTable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, strings.Trim(lt.Label, "() "))
	name := id + ".csv"
	if slug != "" {
		name = id + "-" + slug + ".csv"
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(lt.Table.CSV()), 0o644)
}
