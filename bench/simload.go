package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
)

// simSpec describes one cellnet workload. A round is: build the
// network, run the warm-up and discard its statistics (set-up), then
// advance a fixed simulated horizon slice by slice (the timed region).
// Every round of an invocation uses the same seed, so rounds repeat
// exactly and differ only in host time.
type simSpec struct {
	name   string
	config func(seed uint64, top *topology.Topology) cellnet.Config
	top    func() *topology.Topology
	// warm, horizon and slice are simulated seconds at full scale; the
	// smoke fields replace them in the package test.
	warm, horizon, slice                float64
	smokeWarm, smokeHorizon, smokeSlice float64
	stride                              uint64  // the wrappers time one call in stride
	load                                float64 // nominal offered load per cell, BU
	phdLimit                            float64 // P_HD above this fails the run (0 = unchecked)
	// shareMin and shareMax bracket core.decide_new_share in a traced
	// round: the workload must load (or bypass) the layer it was chosen
	// for. Zero means unchecked.
	shareMin, shareMax float64
}

const voiceRatio = 0.8

// paperRing is the paper's §5.1 experiment: ten cells on a ring, 1 km
// cells, high mobility, offered load 200 BU, 80 % voice.
func paperRing(seed uint64, top *topology.Topology) cellnet.Config {
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Mix = traffic.Mix{VoiceRatio: voiceRatio}
	sr := mobility.HighMobility
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: sr}
	cfg.Schedule = traffic.Constant{
		Lambda: traffic.RateForLoad(200, cfg.Mix, cfg.MeanLifetime),
		MinKmh: sr.MinKmh, MaxKmh: sr.MaxKmh,
	}
	cfg.Seed = seed
	return cfg
}

func ring10() *topology.Topology { return topology.Ring(10) }

var ringAC3 = simSpec{
	name: "ring-ac3",
	top:  ring10,
	config: func(seed uint64, top *topology.Topology) cellnet.Config {
		cfg := paperRing(seed, top)
		cfg.Admission = core.MustPolicy("AC3")
		return cfg
	},
	warm: 1000, horizon: 4000, slice: 20,
	smokeWarm: 200, smokeHorizon: 400, smokeSlice: 20,
	stride: 1, load: 200, phdLimit: 0.02, shareMin: 0.4,
}

var ringStatic = simSpec{
	name: "ring-static",
	top:  ring10,
	config: func(seed uint64, top *topology.Topology) cellnet.Config {
		cfg := paperRing(seed, top)
		cfg.Admission = core.MustPolicy("static")
		cfg.StaticReserve = 10
		return cfg
	},
	warm: 1000, horizon: 100000, slice: 100,
	smokeWarm: 200, smokeHorizon: 10000, smokeSlice: 100,
	stride: 32, load: 200, shareMax: 0.05,
}

// metroSpec is the metroWorkload of the repo's bench_test.go: a 10,000
// cell wrapped hex metro under AC3 with asynchronous signaling. It
// starts cold by design (no warm-up): set-up is the cost of building
// 10,000 engines.
func metroSpec(shards int) simSpec {
	rows, cols := 100, 100
	return simSpec{
		name: "metro-async",
		top:  func() *topology.Topology { return topology.Hex(rows, cols, true) },
		config: func(seed uint64, top *topology.Topology) cellnet.Config {
			cfg := cellnet.PaperBase()
			cfg.Topology = top
			cfg.Admission = core.MustPolicy("AC3")
			cfg.Mix = traffic.Mix{VoiceRatio: voiceRatio}
			sr := mobility.HighMobility
			cfg.Mobility = &mobility.HexWalk{Top: top, DiameterKm: 1, Speed: sr, Persistence: 0.8}
			cfg.Schedule = traffic.Constant{
				Lambda: traffic.RateForLoad(150, cfg.Mix, cfg.MeanLifetime),
				MinKmh: sr.MinKmh, MaxKmh: sr.MaxKmh,
			}
			cfg.Seed = seed
			cfg.Sharding = cellnet.ShardingConfig{Shards: shards, SignalingLatency: 0.25, ExchangePeriod: 5}
			return cfg
		},
		horizon: 30, slice: 0.25,
		smokeHorizon: 2, smokeSlice: 0.25,
		// Two shards, 10,000 span buffers: timing every call costs more
		// than the 15 % the shares can bear, so one call in four is timed.
		stride: 4, load: 150, phdLimit: 0.02,
	}
}

func (s simSpec) dims(smoke bool) (warm, horizon, slice float64) {
	if smoke {
		return s.smokeWarm, s.smokeHorizon, s.smokeSlice
	}
	return s.warm, s.horizon, s.slice
}

func (s simSpec) workload(why string) *workload {
	return &workload{name: s.name, why: why, setup: s.setup}
}

type simInstance struct {
	spec    simSpec
	net     *cellnet.Network
	cfg     cellnet.Config
	engines []*core.Engine
	warm    float64
	slice   float64
	slices  int
	lat     []float64

	fired0 uint64
	live0  int

	// traced rounds only
	tr       *tracer
	buf      *spanBuf
	mob      *tracedMobility
	sched    *countedSchedule
	newMs    float64
	pol0     policyStats
	mobCall0 uint64
	mobTime0 uint64
	mobBusy0 int64
	rates0   uint64
}

func (s simSpec) setup(e *env, tr *tracer) (instance, error) {
	warm, horizon, slice := s.dims(e.smoke)
	top := s.top()
	cfg := s.config(e.seed, top)
	in := &simInstance{spec: s, warm: warm, slice: slice, slices: int(math.Round(horizon / slice)), tr: tr}
	in.lat = make([]float64, 0, in.slices)
	if tr != nil {
		in.buf = tr.newBuf()
		tr.parent = in.buf.begin(spanSetup, tr.now(), 0, 0)
		cfg.Admission = tracePolicy(cfg.Admission, tr, s.stride)
		in.mob = traceMobility(cfg.Mobility, tr, s.stride, top.NumCells())
		cfg.Mobility = in.mob
		in.sched = &countedSchedule{inner: cfg.Schedule}
		cfg.Schedule = in.sched
	}
	t0 := wall.Now()
	n, err := cellnet.New(cfg)
	if err != nil {
		return nil, err
	}
	in.newMs = since(t0) * 1e3
	in.net, in.cfg = n, cfg
	in.engines = make([]*core.Engine, top.NumCells())
	for i := range in.engines {
		in.engines[i] = n.Engine(topology.CellID(i))
	}
	if warm > 0 {
		n.RunUntil(warm)
		n.ResetStats()
	}
	in.fired0, in.live0 = n.EventsFired(), n.ActiveConnections()
	if tr != nil {
		in.buf.end(tr.parent, tr.now())
		in.pol0 = collectPolicyStats(in.engines)
		in.mobCall0, in.mobTime0, in.mobBusy0 = in.mob.totals()
		in.rates0 = in.sched.rates.Load()
	}
	return in, nil
}

func (in *simInstance) run() {
	var runSpan spanID
	if in.tr != nil {
		runSpan = in.buf.begin(spanRun, in.tr.now(), 0, 0)
	}
	for i := 1; i <= in.slices; i++ {
		end := in.warm + float64(i)*in.slice
		if in.tr != nil {
			in.tr.op = int64(i)
			in.tr.parent = in.buf.begin(spanSlice, in.tr.now(), runSpan, int64(i))
		}
		t0 := wall.Now()
		in.net.RunUntil(end)
		in.lat = append(in.lat, float64(wall.Since(t0).Nanoseconds())/1e3)
		if in.tr != nil {
			in.buf.end(in.tr.parent, in.tr.now())
		}
	}
	if in.tr != nil {
		in.buf.end(runSpan, in.tr.now())
	}
}

func (in *simInstance) close() {}

func (in *simInstance) finish(wallS float64) round {
	n := in.net
	res := n.Snapshot()
	r := round{lat: in.lat, layer: map[string]float64{}}
	r.ops = n.EventsFired() - in.fired0
	r.attempted = r.ops
	r.digest = simDigest(res)
	r.joins = res.Total.Requested - res.Total.Blocked + res.Total.HandOffs - res.Total.Dropped
	r.handOffs = res.Total.HandOffs
	if in.cfg.Admission.Traits().Adaptive {
		r.records = res.Total.HandOffs
	}

	// Correctness: every engine's ledger, and connection conservation.
	if err := auditEngines(in.engines, n.Now()); err != nil {
		r.failf("%v", err)
	}
	tot := res.Total
	expected := int64(in.live0) + int64(tot.Requested-tot.Blocked) - int64(tot.Completed+tot.Exited+tot.Dropped)
	live := int64(n.ActiveConnections())
	if in.cfg.Sharding.Async() {
		// Hand-offs in flight between cells are neither live in a cell
		// nor ended: at most the hand-offs of one signaling latency.
		if inflight := expected - live; inflight < 0 || inflight > int64(tot.HandOffs) {
			r.failf("connection conservation: %d born−ended, %d live, %d in flight", expected, live, inflight)
		}
	} else if expected != live {
		r.failf("connection conservation: %d born−ended but %d live", expected, live)
	}
	if in.spec.phdLimit > 0 && res.PHD > in.spec.phdLimit {
		r.failf("P_HD %.4f above %.2f (target %.2f): the reservation contract does not hold", res.PHD, in.spec.phdLimit, in.cfg.PHDTarget)
	}

	// Calibration: the generator offers what the workload says it does.
	horizon := float64(in.slices) * in.slice
	cells := float64(len(in.engines))
	offered := traffic.LoadForRate(float64(tot.Requested)/(cells*horizon), in.cfg.Mix, in.cfg.MeanLifetime)
	r.calib = append(r.calib, fmt.Sprintf("offered load %.1f BU per cell (nominal %.0f), P_CB %.4f, P_HD %.4f, %d events, digest %s",
		offered, in.spec.load, res.PCB, res.PHD, r.ops, r.digest))
	// 3 % of nominal, or four standard deviations of the Poisson count
	// where a short (smoke) run makes that the wider of the two.
	if tol := math.Max(0.03, 4/math.Sqrt(float64(tot.Requested))); math.Abs(offered-in.spec.load) > tol*in.spec.load {
		r.failf("offered load %.1f BU is more than %.1f%% from nominal %.0f", offered, 100*tol, in.spec.load)
	}
	if in.tr == nil {
		return r
	}

	pol := collectPolicyStats(in.engines)
	covered := policyMetrics(in.pol0, pol, wallS, r.layer)
	share := r.layer["core.decide_new_share"]
	if (in.spec.shareMin > 0 && share < in.spec.shareMin) || (in.spec.shareMax > 0 && share > in.spec.shareMax) {
		r.failf("calibration: core.decide_new_share %.3f outside [%g, %g]", share, in.spec.shareMin, in.spec.shareMax)
	}
	calls, timed, busyNs := in.mob.totals()
	calls, timed, busyNs = calls-in.mobCall0, timed-in.mobTime0, busyNs-in.mobBusy0
	r.layer["mobility.paths"] = float64(calls)
	r.layer["mobility.path_ns"] = ratio(float64(busyNs), float64(timed))
	covered += busySeconds(busyNs, timed, calls)
	r.layer["traffic.schedule_calls"] = float64(in.sched.rates.Load() - in.rates0)
	newCalls := float64(pol.newCalls - in.pol0.newCalls)
	voice := ratio(float64(pol.voice-in.pol0.voice), newCalls)
	r.calib = append(r.calib, fmt.Sprintf("voice ratio %.4f (nominal %.1f)", voice, voiceRatio))
	if tol := math.Max(0.01, 4*math.Sqrt(voiceRatio*(1-voiceRatio)/newCalls)); math.Abs(voice-voiceRatio) > tol {
		r.failf("voice ratio %.4f is more than %.3f from nominal %.1f", voice, tol, voiceRatio)
	}
	engineCounters(in.engines, n.Now(), r.layer)
	sorted := append([]float64(nil), in.lat...)
	sort.Float64s(sorted)
	r.layer["cellnet.new_ms"] = in.newMs
	r.layer["cellnet.window_ms_p50"] = percentile(sorted, 50) / 1e3
	r.layer["cellnet.window_ms_p99"] = percentile(sorted, 99) / 1e3
	// Wrapper-covered time is summed over shards, so it is set against
	// the processor time the shards had, not the wall alone.
	r.layer["cellnet.self_share"] = 1 - covered/(wallS*float64(in.cfg.Sharding.NumShards()))
	r.layer["cellnet.exchanges"] = float64(res.Exchanges)
	r.layer["cellnet.p_cb"] = res.PCB
	r.layer["cellnet.p_hd"] = res.PHD
	return r
}

// simDigest hashes a canonical rendering of the simulated statistics:
// two commits whose digests agree simulated the same thing.
func simDigest(res *cellnet.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "total %+v\n", res.Total)
	for _, c := range res.Cells {
		fmt.Fprintf(h, "cell %d %+v\n", c.ID, c.Counters)
	}
	fmt.Fprintf(h, "pcb %x phd %x\n", math.Float64bits(res.PCB), math.Float64bits(res.PHD))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
