// Package nodeterm forbids nondeterministic time and entropy sources
// inside the simulation core. Byte-identical golden Reports across
// worker counts (DESIGN.md §8) hold only because every event is timed
// by the simulation clock and every random draw comes from an
// explicitly seeded per-purpose math/rand/v2 PCG stream. One stray
// time.Now or global-rand call silently decouples replay from seed.
package nodeterm

import (
	"go/ast"
	"strings"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/flow"
)

// Analyzer flags wall-clock and ambient-entropy reads: entropy rules
// in the deterministic packages, wall-clock rules module-wide.
var Analyzer = &analysis.Analyzer{
	Name: "nodeterm",
	Doc: "forbid wall-clock reads (time.Now, time.Since) everywhere but " +
		"internal/clock, and math/rand (v1) plus the math/rand/v2 global " +
		"source inside the deterministic simulation packages; simulation " +
		"time, internal/clock, and seeded per-purpose PCG streams are the " +
		"only approved clocks and entropy",
	Run: run,
}

// scopePrefixes limits the entropy checks to the packages whose outputs
// must be bit-reproducible from (config, seed) alone. CLIs, signaling
// (which touches real sockets and deadlines) and the chaos harness may
// use ambient entropy for jitter.
var scopePrefixes = []string{
	"cellqos/internal/core",
	"cellqos/internal/predict",
	"cellqos/internal/sim",
	"cellqos/internal/cellnet",
	"cellqos/internal/runner",
	"cellqos/internal/experiments",
}

// clockPackage is the single module package allowed to read the wall
// clock directly. Everything else — CLIs, signaling, benchmarks,
// external test packages included — goes through its Clock interface
// (clock.Wall in production, clock.Manual in tests), so every wall-time
// dependency in the module is injectable and every direct read is
// grep-able in one file.
const clockPackage = "cellqos/internal/clock"

// wallClockExempt reports whether pkg may call time.Now/time.Since:
// the clock package itself and its test variants.
func wallClockExempt(path string) bool {
	return strings.TrimSuffix(path, "_test") == clockPackage
}

// inModule limits the wall-clock rule to this module's packages (the
// fixtures under testdata share the cellqos/ prefix).
func inModule(path string) bool {
	return path == "cellqos" || strings.HasPrefix(path, "cellqos/")
}

func inScope(path string) bool {
	for _, p := range scopePrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	entropyScope := inScope(path)
	wallScope := inModule(path) && !wallClockExempt(path)
	if !entropyScope && !wallScope {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// The flow classifiers only match package-level selections
			// (pkg.Name), never field or method selections on values.
			if name, isClock := flow.WallClock(pass.TypesInfo, sel); wallScope && isClock {
				switch name {
				case "time.Now":
					pass.Reportf(sel.Pos(),
						"time.Now is wall clock: deterministic code takes time from the simulation clock (sim.Scheduler) or event timestamps; everything else reads through internal/clock (clock.Wall, clock.Manual)")
				case "time.Since":
					pass.Reportf(sel.Pos(),
						"time.Since is wall clock: measure elapsed time with clock.Clock.Since (internal/clock) so tests can drive it with clock.Manual")
				}
			}
			if kind, isRand := flow.GlobalRand(pass.TypesInfo, sel); entropyScope && isRand {
				if kind == "v1" {
					pass.Reportf(sel.Pos(),
						"math/rand (v1) is banned in deterministic packages: use an explicitly seeded math/rand/v2 PCG stream (rand.New(rand.NewPCG(seed, stream)))")
				} else {
					pass.Reportf(sel.Pos(),
						"rand.%s draws from the process-global, randomly seeded source: use an explicitly seeded per-purpose PCG stream (rand.New(rand.NewPCG(seed, stream)))", kind)
				}
			}
			return true
		})
	}
	return nil, nil
}
