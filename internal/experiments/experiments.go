// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a named function from Options to a
// Report of labeled tables; cmd/experiments runs them from the command
// line and bench_test.go exposes each as a benchmark.
//
// Every experiment expresses its sweep as a list of runner.Scenario
// points executed by internal/runner, so points run in parallel
// (Options.Parallel workers) yet the assembled Report is deterministic:
// the same seed yields byte-identical Report.Bytes output at any worker
// count, because each point is an independent Network and results are
// merged by point index, never by completion order.
//
// Absolute numbers depend on run length and RNG, so each Report states
// the paper's qualitative claim ("shape") that the regenerated data
// should exhibit; EXPERIMENTS.md records a measured-vs-paper comparison.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"cellqos/internal/audit"
	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/plot"
	"cellqos/internal/runner"
	"cellqos/internal/stats"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// Options sizes the experiment runs. Zero values take paper-scale
// defaults; tests and benchmarks shrink them.
type Options struct {
	// Duration is the simulated seconds per stationary run (default 20000).
	Duration float64
	// TraceDuration is the Fig. 10/11 run length (default 2000, as in the
	// paper's plots).
	TraceDuration float64
	// Days is the Fig. 14 run length in days (default 2, as in §5.3).
	Days int
	// Fig14Hours, when positive, overrides Days with a run of that many
	// hours for the fig14 experiment — the golden corpus and quick tests
	// use a few hours instead of a multi-day sweep.
	Fig14Hours int
	// Loads is the offered-load sweep (default 60..300).
	Loads []float64
	// Seed drives all RNG.
	Seed uint64
	// Parallel is the scenario worker count (0 = GOMAXPROCS). Results
	// are identical at any worker count.
	Parallel int
	// Context, when non-nil, cancels in-flight sweeps; the experiment
	// then returns the context's error.
	Context context.Context
	// Sink, when non-nil, observes per-point progress.
	Sink runner.Sink
	// Audit, when non-nil, attaches the runtime invariant checker to
	// every scenario of every sweep (cellnet.Config.Audit). The checker
	// is stateless, so sharing one across parallel workers is safe.
	Audit *audit.Checker
}

// withDefaults fills in zero fields, then rejects what no experiment
// can run, naming the field.
func (o Options) withDefaults() (Options, error) {
	if o.Duration == 0 {
		o.Duration = 20000
	}
	if o.TraceDuration == 0 {
		o.TraceDuration = 2000
	}
	if o.Days == 0 {
		o.Days = 2
	}
	if len(o.Loads) == 0 {
		o.Loads = []float64{60, 100, 150, 200, 250, 300}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch {
	case !finitePositive(o.Duration):
		return o, fmt.Errorf("Options.Duration %v: must be finite and > 0", o.Duration)
	case !finitePositive(o.TraceDuration):
		return o, fmt.Errorf("Options.TraceDuration %v: must be finite and > 0", o.TraceDuration)
	case o.Days < 0:
		return o, fmt.Errorf("Options.Days %d: must be >= 0", o.Days)
	case o.Fig14Hours < 0:
		return o, fmt.Errorf("Options.Fig14Hours %d: must be >= 0", o.Fig14Hours)
	}
	for _, l := range o.Loads {
		if !(l >= 0 && !math.IsInf(l, 1)) {
			return o, fmt.Errorf("Options.Loads: offered load %v must be finite and >= 0", l)
		}
	}
	return o, nil
}

// finitePositive reports whether v is a finite number > 0 (NaN is not).
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// LabeledTable pairs a table with its caption.
type LabeledTable struct {
	Label string
	Table *stats.Table
}

// Report is one regenerated figure or table.
type Report struct {
	ID         string
	Title      string
	PaperClaim string // the qualitative shape the paper reports
	Tables     []LabeledTable
	// Charts render figure-type reports as terminal plots
	// (cmd/experiments -plot).
	Charts []*plot.Chart
}

// Bytes is the report's canonical serialization: metadata, every table
// as CSV, every chart as its rendered text. Identical simulation data
// serializes to identical bytes, which is how the runner's determinism
// guarantee is verified (same seed ⇒ same bytes at any Parallel).
//
//cellqos:allow unreached internal/golden's TestGoldenCorpus pins every report by these bytes
func (r *Report) Bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "report %s\ntitle %s\nclaim %s\n", r.ID, r.Title, r.PaperClaim)
	for _, lt := range r.Tables {
		fmt.Fprintf(&b, "table %q\n%s", lt.Label, lt.Table.CSV())
	}
	for _, ch := range r.Charts {
		fmt.Fprintf(&b, "chart\n%s\n", ch.Render())
	}
	return b.Bytes()
}

// Experiment is a runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig7", "P_CB/P_HD vs load, static reservation G=10", Fig7},
		{"fig8", "P_CB/P_HD vs load, AC3", Fig8},
		{"fig9", "Average B_r and B_u vs load, AC3", Fig9},
		{"fig10", "T_est and B_r vs time, cells <5>,<6>", Fig10},
		{"fig11", "Cumulative P_HD vs time, cells <5>,<6>", Fig11},
		{"fig12", "P_CB/P_HD vs load, AC1 vs AC2 vs AC3", Fig12},
		{"fig13", "Average N_calc vs load", Fig13},
		{"table2", "Per-cell status at load 300, AC1 vs AC3", Table2},
		{"table3", "Per-cell status, one-directional mobiles", Table3},
		{"fig14", "Time-varying traffic/mobility over two days", Fig14},
		{"baseline-expdwell", "AC3 vs exponential-dwell baseline (§6)", BaselineExpDwell},
		{"baseline-mobspec", "AC3 vs mobility-spec reservation (§6)", BaselineMobSpec},
		{"extension-hints", "§7 ITS/GPS path-informed reservation", ExtensionHints},
		{"extension-wired", "§2/§7 wired-link reservation + re-routing", ExtensionWired},
		{"extension-cdma", "§7 CDMA soft hand-off and soft capacity", ExtensionCDMA},
		{"integration-adaptiveqos", "§1 adaptive-QoS integration", IntegrationAdaptiveQoS},
		{"ablation-step", "T_est step policy ablation (§4.2)", AblationStep},
		{"ablation-nquad", "N_quad sensitivity ablation", AblationNQuad},
		{"ablation-dropped", "Recording dropped hand-off departures", AblationDropped},
		{"extension-faults", "Signaling faults and graceful degradation", ExtensionFaults},
		{"metro-sharded", "Metro-scale sharded kernel, async signaling", MetroSharded},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// runAll executes scenarios on the shared runner and returns their
// points in declaration order, failing on the first point error.
func runAll(opt Options, scens []runner.Scenario) ([]runner.PointResult, error) {
	if opt.Audit != nil {
		for i := range scens {
			scens[i].Config.Audit = opt.Audit
		}
	}
	r := &runner.Runner{Parallel: opt.Parallel, Sink: opt.Sink}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	points, err := r.Run(ctx, scens)
	if err == nil {
		err = runner.FirstError(points)
	}
	if err != nil {
		return nil, err
	}
	return points, nil
}

// runResults is runAll projected onto the simulation results.
func runResults(opt Options, scens []runner.Scenario) ([]*cellnet.Result, error) {
	points, err := runAll(opt, scens)
	if err != nil {
		return nil, err
	}
	return runner.Results(points), nil
}

// runOne executes a single scenario.
func runOne(opt Options, s runner.Scenario) (*cellnet.Result, error) {
	res, err := runResults(opt, []runner.Scenario{s})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// scenario wraps a config and duration as a runner point.
func scenario(key string, cfg cellnet.Config, duration float64) runner.Scenario {
	return runner.Scenario{Key: key, Config: cfg, Duration: duration}
}

// loadGrid is the shared (group × series × load) sweep behind the
// stationary figures (7–9, 12–13): one scenario per cell of the grid,
// executed by the runner, results reshaped to [group][series][load]
// with loads ascending.
func loadGrid(opt Options, id string, groups, series int,
	build func(g, s int, load float64) cellnet.Config) ([][][]*cellnet.Result, error) {
	loads := sortedLoads(opt)
	scens := make([]runner.Scenario, 0, groups*series*len(loads))
	for g := 0; g < groups; g++ {
		for s := 0; s < series; s++ {
			for _, load := range loads {
				key := fmt.Sprintf("%s/g%d/s%d/load%g", id, g, s, load)
				scens = append(scens, scenario(key, build(g, s, load), opt.Duration))
			}
		}
	}
	flat, err := runResults(opt, scens)
	if err != nil {
		return nil, err
	}
	out := make([][][]*cellnet.Result, groups)
	i := 0
	for g := 0; g < groups; g++ {
		out[g] = make([][]*cellnet.Result, series)
		for s := 0; s < series; s++ {
			out[g][s] = flat[i : i+len(loads)]
			i += len(loads)
		}
	}
	return out, nil
}

// variantSweep is the shared (variant × load) sweep behind the baseline,
// extension and ablation tables: results come back as [variant][load].
func variantSweep(opt Options, id string, variants int, loads []float64,
	build func(v int, load float64) cellnet.Config) ([][]*cellnet.Result, error) {
	scens := make([]runner.Scenario, 0, variants*len(loads))
	for v := 0; v < variants; v++ {
		for _, load := range loads {
			key := fmt.Sprintf("%s/v%d/load%g", id, v, load)
			scens = append(scens, scenario(key, build(v, load), opt.Duration))
		}
	}
	flat, err := runResults(opt, scens)
	if err != nil {
		return nil, err
	}
	out := make([][]*cellnet.Result, variants)
	for v := 0; v < variants; v++ {
		out[v] = flat[v*len(loads) : (v+1)*len(loads)]
	}
	return out, nil
}

// mobilityName labels the paper's two stationary speed ranges.
func mobilityName(high bool) string {
	if high {
		return "high"
	}
	return "low"
}

func speedRange(high bool) mobility.SpeedRange {
	if high {
		return mobility.HighMobility
	}
	return mobility.LowMobility
}

// stationaryConfig builds the paper's §5.1 scenario: a 10-cell ring,
// 1-km cells, constant Poisson load, bidirectional constant-speed
// mobiles. Each call mints a fresh Config, so the returned value is safe
// to run as its own Network ("one Network per goroutine").
func stationaryConfig(policy string, load, rvo float64, high bool, seed uint64) cellnet.Config {
	top := topology.Ring(10)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = core.MustPolicy(policy)
	cfg.Mix = traffic.Mix{VoiceRatio: rvo}
	sr := speedRange(high)
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: sr}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(load, cfg.Mix, cfg.MeanLifetime),
		MinKmh: sr.MinKmh, MaxKmh: sr.MaxKmh,
	}
	cfg.Seed = seed
	return cfg
}

// cellID converts for readability at call sites.
func cellID(i int) topology.CellID { return topology.CellID(i) }

// seriesGrid samples a trace on a uniform grid (sample-and-hold).
func seriesGrid(s *stats.Series, end float64, step float64) []float64 {
	var out []float64
	for t := 0.0; t <= end; t += step {
		v, _ := s.ValueAt(t)
		out = append(out, v)
	}
	return out
}

// sortedLoads returns the option's loads ascending (defensive copy).
func sortedLoads(opt Options) []float64 {
	loads := append([]float64(nil), opt.Loads...)
	sort.Float64s(loads)
	return loads
}

func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// probChart builds a log-y chart for probability-vs-load figures.
func probChart(title string) *plot.Chart {
	c := plot.New(title, "offered load (BU)", "probability (log)")
	c.LogY = true
	c.FloorY = 1e-5
	return c
}

// seriesCollector accumulates named (x, y) series in insertion order.
type seriesCollector struct {
	order []string
	data  map[string][2][]float64
}

func newCollector() *seriesCollector {
	return &seriesCollector{data: make(map[string][2][]float64)}
}

func (sc *seriesCollector) add(name string, x, y float64) {
	if _, ok := sc.data[name]; !ok {
		sc.order = append(sc.order, name)
	}
	d := sc.data[name]
	d[0] = append(d[0], x)
	d[1] = append(d[1], y)
	sc.data[name] = d
}

func (sc *seriesCollector) into(c *plot.Chart) *plot.Chart {
	for _, name := range sc.order {
		d := sc.data[name]
		c.Add(name, d[0], d[1])
	}
	return c
}
