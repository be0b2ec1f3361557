// Command arena runs the admission-policy arena: every roster
// admission scheme against the same controlled workload grid, ranked on
// hand-off dropping, new-call blocking and utilization, with the
// pre-registered hypothesis verdicts appended.
//
// Usage:
//
//	arena                        # pinned default grid (matches results/arena/arena.txt)
//	arena -list                  # print the contender roster and exit
//	arena -policies AC3,static   # restrict the roster
//	arena -seeds 10 -loads 150,300 -rvo 0.5,1 -duration 2000
//	arena -out results/arena/arena.txt -audit 64
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cellqos/internal/arena"
	"cellqos/internal/audit"
	"cellqos/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arena", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "print the contender roster and exit")
		duration = fs.Float64("duration", 0, "simulated seconds per point (0 = pinned default)")
		seeds    = fs.Int("seeds", 0, "seeds per grid cell (0 = pinned default)")
		seed     = fs.Uint64("seed", 0, "base seed (0 = pinned default)")
		loads    = fs.String("loads", "", "comma-separated offered loads (empty = pinned default)")
		rvo      = fs.String("rvo", "", "comma-separated voice ratios (empty = pinned default)")
		policies = fs.String("policies", "", "comma-separated contender names (empty = full roster)")
		parallel = fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS)")
		auditN   = fs.Int("audit", 0, "verify runtime invariants every N events (0 = off)")
		out      = fs.String("out", "", "also write the report to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	errf := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "arena: "+format+"\n", a...)
		return 2
	}
	if *list {
		for _, name := range core.PolicyNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if !(*duration >= 0 && !math.IsInf(*duration, 1)) {
		return errf("-duration %v: the simulated time must be finite and >= 0 (0 = pinned default)", *duration)
	}
	if *seeds < 0 {
		return errf("-seeds %d: the seed count must be >= 0 (0 = pinned default)", *seeds)
	}
	opt := arena.Options{
		Duration: *duration,
		Seeds:    *seeds,
		Seed:     *seed,
		Parallel: *parallel,
	}
	var err error
	if opt.Loads, err = parseFloats(*loads); err != nil {
		return errf("-loads: %v", err)
	}
	for _, v := range opt.Loads {
		if !(v >= 0 && !math.IsInf(v, 1)) {
			return errf("-loads %v: every offered load must be finite and >= 0", v)
		}
	}
	if opt.VoiceRatios, err = parseFloats(*rvo); err != nil {
		return errf("-rvo: %v", err)
	}
	for _, v := range opt.VoiceRatios {
		if !(v >= 0 && v <= 1) {
			return errf("-rvo %v: every voice ratio must lie in [0, 1]", v)
		}
	}
	if *policies != "" {
		opt.Policies = strings.Split(*policies, ",")
	}
	if *auditN > 0 {
		opt.Audit = &audit.Checker{EveryN: *auditN}
	}
	res, err := arena.Run(opt)
	if err != nil {
		fmt.Fprintf(stderr, "arena: %v\n", err)
		return 1
	}
	report := res.Report()
	if _, err := stdout.Write(report); err != nil {
		fmt.Fprintf(stderr, "arena: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, report, 0o644); err != nil {
			fmt.Fprintf(stderr, "arena: %v\n", err)
			return 1
		}
	}
	return 0
}

func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	vals := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}
