package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cellqos/internal/audit"
	"cellqos/internal/clock"
	"cellqos/internal/core"
)

// wall is the benchmark's only source of host time (the repo's
// nodeterm rule: wall-clock reads go through internal/clock).
var wall clock.Wall

// metricDef declares one metric of BENCHMARK.json. The lists below and
// that file must agree; the package test checks it.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; "op" is the workload's unit of work (see
// the workload table in README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p99_us", "us", "lower"},
	{"allocs_per_op", "1/op", "lower"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// env is what a workload needs to know about this invocation.
type env struct {
	seed  uint64
	smoke bool   // reduced sizes for the package test
	tmp   string // scratch directory inside the checkout
}

// workload is one set of inputs. prepare generates inputs that are not
// part of set-up (untimed, once per process); setup builds the program
// state up to the first timed operation and is what setup_s measures.
// A nil tracer means an untraced round.
type workload struct {
	name, why string
	prepare   func(e *env) error
	setup     func(e *env, tr *tracer) (instance, error)
	// oneShard, when set, is the same workload on a single kernel shard;
	// the traced phase runs it once for sim.shard.scaling_2.
	oneShard *workload
}

// prepared runs the workload's input generation, if it has any.
func (w *workload) prepared(e *env) error {
	if w.prepare == nil {
		return nil
	}
	if err := w.prepare(e); err != nil {
		return fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	return nil
}

// instance is one round's program state. run is the timed region and
// does nothing else; finish, given the region's wall time, checks the
// outputs and reads the counters.
type instance interface {
	run()
	finish(wallS float64) round
	close()
}

// round is what one timed region produced.
type round struct {
	ops               uint64    // units of work completed in the timed region
	attempted, failed uint64    // operations attempted / failed, per the workload's rule
	lat               []float64 // µs per timed unit (decision, or simulated slice)
	digest            string    // canonical hash of the round's outputs
	layer             map[string]float64
	calib             []string // calibration lines, printed with the results
	err               error    // a failed correctness or calibration check
	// joins, handOffs and records count the engine calls cellnet makes
	// around the policy (simulations only), for the upkeep estimate:
	// AddConnection/RemoveConnection pairs, hand-off admissions with
	// their arrival notes, and departures that reach an estimator.
	joins, handOffs, records uint64

	// filled by timedRound
	setupS, wallS  float64
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	heapLiveMB     float64
}

func (r *round) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// timedRound runs set-up and one timed region of w.
func timedRound(w *workload, e *env, tr *tracer) (round, error) {
	runtime.GC() // every round starts from a collected heap
	t0 := wall.Now()
	inst, err := w.setup(e, tr)
	if err != nil {
		return round{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setupS := wall.Since(t0).Seconds()
	defer inst.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := wall.Now()
	inst.run()
	wallS := wall.Since(t1).Seconds()
	runtime.ReadMemStats(&m1)

	r := inst.finish(wallS)
	r.setupS, r.wallS = setupS, wallS
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	if tr != nil {
		runtime.GC()
		runtime.ReadMemStats(&m1)
		r.heapLiveMB = float64(m1.HeapAlloc) / (1 << 20)
	}
	if r.ops == 0 {
		r.failf("no operation completed")
	}
	return r, nil
}

// outcome is the result of one invocation on one workload.
type outcome struct {
	correct           bool
	attempted, failed uint64
	metrics           map[string]float64
	digest            string
	notes             []string // human-readable lines (calibration, sample counts)
	errs              []string
}

func (o *outcome) absorb(r *round, label string) {
	o.attempted += r.attempted
	o.failed += r.failed
	if r.err != nil {
		o.correct = false
		o.errs = append(o.errs, fmt.Sprintf("%s: %v", label, r.err))
	}
	if o.digest == "" {
		o.digest = r.digest
	} else if r.digest != o.digest {
		o.correct = false
		o.errs = append(o.errs, fmt.Sprintf("%s: result digest %s differs from the first round's %s", label, r.digest, o.digest))
	}
}

// setupSamples is how many set-up times an untraced invocation aims
// for before taking their median.
const setupSamples = 15

// perOpMedians reduces the rounds' latency vectors to one latency per
// timed unit: rounds repeat the same operations on the same inputs, so
// unit i of every round is the same work, and the median over rounds is
// that work's cost with the host's jitter (collector cycles, scheduling)
// taken out. Percentiles over the result describe the operations.
func perOpMedians(rounds [][]float64) ([]float64, error) {
	n := len(rounds[0])
	col := make([]float64, len(rounds))
	out := make([]float64, n)
	for _, r := range rounds {
		if len(r) != n {
			return nil, fmt.Errorf("rounds timed %d and %d units: they did not repeat the same operations", n, len(r))
		}
	}
	for i := range out {
		for j, r := range rounds {
			col[j] = r[i]
		}
		sort.Float64s(col)
		out[i] = middle(col)
	}
	return out, nil
}

// measure runs untraced rounds of w until the timed regions add up to
// the requested seconds, and reports the end-to-end metrics.
func measure(w *workload, e *env, seconds float64) (*outcome, error) {
	if err := w.prepared(e); err != nil {
		return nil, err
	}
	o := &outcome{correct: true, metrics: map[string]float64{}}
	var setups, rates []float64
	var lats [][]float64
	var ops, mallocs, bytes uint64
	var calib []string
	for timed := 0.0; timed < seconds; {
		r, err := timedRound(w, e, nil)
		if err != nil {
			return nil, err
		}
		o.absorb(&r, fmt.Sprintf("round %d", len(rates)+1))
		setups = append(setups, r.setupS)
		rates = append(rates, float64(r.ops)/r.wallS)
		lats = append(lats, r.lat)
		ops += r.ops
		mallocs += r.mallocs
		bytes += r.bytes
		timed += r.wallS
		calib = r.calib
	}
	// Set-up is short on most workloads, so a handful of rounds gives a
	// shaky median: set up alone some more, for up to a second.
	for t0 := wall.Now(); len(setups) < setupSamples && since(t0) < 1; {
		runtime.GC()
		t1 := wall.Now()
		inst, err := w.setup(e, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, since(t1))
		inst.close()
	}
	lat, err := perOpMedians(lats)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	sort.Float64s(lat)
	o.metrics["setup_s"] = median(setups)
	o.metrics["ops_per_s"] = median(rates)
	o.metrics["op_p50_us"] = percentile(lat, 50)
	o.metrics["op_p99_us"] = percentile(lat, 99)
	o.metrics["allocs_per_op"] = ratio(float64(mallocs), float64(ops))
	o.metrics["alloc_bytes_per_op"] = ratio(float64(bytes), float64(ops))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = rss
	o.notes = append(o.notes, fmt.Sprintf("%d rounds, %d ops, %d set-ups; %d timed units per round (%d beyond p99), each the median of its %d repetitions",
		len(rates), ops, len(setups), len(lat), len(lat)-len(lat)*99/100-1, len(rates)))
	o.notes = append(o.notes, fmt.Sprintf("ops/s by round: %.6g", rates))
	o.notes = append(o.notes, calib...)
	return o, nil
}

// measureLayers is the traced invocation: the layer drives, then
// alternating untraced and traced rounds of w (their wall ratio is the
// tracing overhead), and it reports every per-layer metric. A metric
// whose layer is not on this workload's path reads 0.
func measureLayers(w *workload, e *env, seconds float64, tracePath string) (*outcome, error) {
	if err := w.prepared(e); err != nil {
		return nil, err
	}
	o := &outcome{correct: true, metrics: map[string]float64{}}
	for _, d := range perLayer {
		o.metrics[d.name] = 0
	}
	drive, err := layerDrives(e)
	if err != nil {
		return nil, err
	}

	var plainWall, tracedWall, plainRate []float64
	var last round
	var lastTracer *tracer
	for timed := 0.0; timed < seconds; {
		plain, err := timedRound(w, e, nil)
		if err != nil {
			return nil, err
		}
		o.absorb(&plain, fmt.Sprintf("untraced round %d", len(plainWall)+1))
		tr := newTracer()
		traced, err := timedRound(w, e, tr)
		if err != nil {
			return nil, err
		}
		o.absorb(&traced, fmt.Sprintf("traced round %d", len(tracedWall)+1))
		plainWall = append(plainWall, plain.wallS)
		plainRate = append(plainRate, float64(plain.ops)/plain.wallS)
		tracedWall = append(tracedWall, traced.wallS)
		timed += plain.wallS + traced.wallS
		last, lastTracer = traced, tr
	}
	spans := lastTracer.all()
	if err := checkNesting(spans); err != nil {
		o.correct = false
		o.errs = append(o.errs, err.Error())
	}
	if err := writeTrace(tracePath, spans, w.name, e.seed); err != nil {
		return nil, err
	}

	for k, v := range drive {
		o.metrics[k] = v
	}
	for k, v := range last.layer {
		o.metrics[k] = v
	}
	addUpkeepEstimate(o.metrics, &last)
	o.metrics["runtime.gc_cycles"] = float64(last.gcCycles)
	o.metrics["runtime.gc_pause_ms"] = float64(last.gcPauseNs) / 1e6
	o.metrics["runtime.heap_live_mb"] = last.heapLiveMB
	overhead := 100 * (median(tracedWall)/median(plainWall) - 1)
	o.metrics["trace_overhead_pct"] = overhead
	if overhead >= 15 {
		o.notes = append(o.notes, fmt.Sprintf("WARNING: tracing cost %.1f %% of the untraced wall: read this run's shares with care", overhead))
	}
	if w.oneShard != nil {
		one, err := timedRound(w.oneShard, e, nil)
		if err != nil {
			return nil, err
		}
		o.absorb(&one, "one-shard round")
		o.metrics["sim.shard.scaling_2"] = median(plainRate) / (float64(one.ops) / one.wallS)
	}
	o.notes = append(o.notes, fmt.Sprintf("%d untraced + %d traced rounds; trace of the last one in %s", len(plainWall), len(tracedWall), tracePath))
	o.notes = append(o.notes, last.calib...)
	for k := range o.metrics {
		if !isPerLayer(k) {
			return nil, fmt.Errorf("%s: undeclared per-layer metric %q", w.name, k)
		}
	}
	return o, nil
}

// addUpkeepEstimate fills cellnet.engine_upkeep_est_share: the engine
// calls cellnet makes outside the policy (which no outside wrapper can
// see), estimated as the round's counts times the layer drives' unit
// costs, over the timed wall. An estimate, not a measurement.
func addUpkeepEstimate(m map[string]float64, r *round) {
	ns := float64(r.joins)*m["core.add_remove_ns"] +
		float64(r.handOffs)*m["core.handoff_admit_ns"] +
		float64(r.records)*m["predict.record_ns"]
	m["cellnet.engine_upkeep_est_share"] = ns / 1e9 / r.wallS
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}

// peakRSSMB reads VmHWM, the high-water mark of this process's resident
// set.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// machine is the stanza written into every result and trace file.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// auditEngines runs internal/audit over every engine's ledger, as
// `bsnet -audit` does, turning a Violation panic into an error.
func auditEngines(engines []*core.Engine, now float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := r.(*audit.Violation)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	var ck audit.Checker
	for i, e := range engines {
		ck.Engine(fmt.Sprintf("cell %d", i), now, e.Ledger())
	}
	return nil
}

// engineCounters sums the public counters of the engines into the
// per-layer metrics that come from accessors (source C in README.md).
func engineCounters(engines []*core.Engine, now float64, into map[string]float64) {
	var l core.Ledger
	var hits, misses, recorded, evicted uint64
	for _, e := range engines {
		el := e.Ledger()
		l.BrCalcs += el.BrCalcs
		l.Eq5Rebuilds += el.Eq5Rebuilds
		l.Eq5Advances += el.Eq5Advances
		l.Eq5Refreshes += el.Eq5Refreshes
		l.Eq5Adoptions += el.Eq5Adoptions
		h, m := e.Eq5CacheStats()
		hits += h
		misses += m
		if est := e.Estimator(now); est != nil {
			recorded += est.Recorded()
			evicted += est.Evicted()
		}
	}
	into["core.br_calcs"] = float64(l.BrCalcs)
	into["core.eq5_rebuilds"] = float64(l.Eq5Rebuilds)
	into["core.eq5_advances"] = float64(l.Eq5Advances)
	into["core.eq5_refreshes"] = float64(l.Eq5Refreshes)
	into["core.eq5_adoptions"] = float64(l.Eq5Adoptions)
	into["core.eq5_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	into["predict.recorded"] = float64(recorded)
	into["predict.evicted"] = float64(evicted)
}

// policyMetrics turns the policy wrappers' counters over a timed region
// (after minus before) into the core.decide_* metrics and returns the
// time they cover.
func policyMetrics(before, after policyStats, wallS float64, into map[string]float64) (coveredS float64) {
	newCalls := after.newCalls - before.newCalls
	hoCalls := after.handOffCalls - before.handOffCalls
	newBusy := busySeconds(after.newBusyNs-before.newBusyNs, after.newTimed-before.newTimed, newCalls)
	hoBusy := busySeconds(after.handOffBusyNs-before.handOffBusyNs, after.handOffTimed-before.handOffTimed, hoCalls)
	into["core.decide_new_calls"] = float64(newCalls)
	into["core.decide_new_busy_s"] = newBusy
	into["core.decide_new_share"] = ratio(newBusy, wallS)
	into["core.decide_handoff_calls"] = float64(hoCalls)
	into["core.decide_handoff_busy_s"] = hoBusy
	return newBusy + hoBusy
}

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return wall.Since(t).Seconds() }
