package cellnet

import (
	"cellqos/internal/stats"
	"cellqos/internal/topology"
)

// CellResult is one cell's end-of-run status (the rows of the paper's
// Tables 2–3).
type CellResult struct {
	ID       topology.CellID
	Counters stats.Counters
	PCB      float64
	PHD      float64
	Test     float64 // T_est at the end of the run
	Br       float64 // target reservation bandwidth at the end
	Bu       int     // used bandwidth at the end
	AvgBr    float64 // time-averaged target reservation
	AvgBu    float64 // time-averaged used bandwidth
	// Exchanges counts peer information exchanges this cell initiated.
	Exchanges uint64
}

// Result summarizes a run.
type Result struct {
	Duration float64
	Cells    []CellResult
	// Total aggregates every cell's counters.
	Total stats.Counters
	// PCB, PHD and NCalc are system-wide (paper Figs. 7–8, 12–13).
	PCB, PHD, NCalc float64
	// AvgBr and AvgBu are the per-cell time averages, averaged over
	// cells (paper Fig. 9).
	AvgBr, AvgBu float64
	// Hourly aggregates per-hour counters system-wide (Fig. 14(b)).
	Hourly []stats.Counters
	// Traces holds the per-cell time series requested via TraceCells.
	Traces map[topology.CellID]*Trace
	// Exchanges totals peer information exchanges.
	Exchanges uint64
	// Wired backbone outcomes (zero unless a Backbone is configured):
	// connections blocked / hand-offs dropped for lack of wired capacity,
	// successful re-routes, and the backbone bandwidth in use at the end.
	WiredBlocked  uint64
	WiredDropped  uint64
	WiredReroutes uint64
	WiredUsed     int
	// Soft hand-off outcomes (§7 CDMA extension): hand-offs completed
	// inside the overlap window vs dropped at its expiry.
	SoftSaved   uint64
	SoftExpired uint64
	// Adaptive-QoS outcomes (§1 integration): time-averaged degraded
	// bandwidth per cell and lifetime adaptation event counts.
	AvgDegraded   float64
	QoSDowngrades uint64
	QoSUpgrades   uint64
	// Degraded signaling-plane outcomes (Config.FaultDrop): injected
	// exchange failures, B_r computations that substituted a fallback
	// contribution, and admission tests decided on unknown neighbor
	// state. All zero in a fault-free run.
	PeerFaults         uint64
	DegradedBrCalcs    uint64
	DegradedAdmissions uint64
}

// Run advances the simulation until the clock reaches end (absolute
// simulation seconds) and returns the accumulated results. It may be
// called repeatedly with increasing end times; statistics accumulate
// unless ResetStats is called in between.
func (n *Network) Run(end float64) *Result {
	n.RunUntil(end)
	return n.Snapshot()
}

// RunUntil advances the simulation clock to end (absolute seconds)
// without building a Result. Slicing a run into several RunUntil calls
// fires exactly the same events as one call with the final end time;
// internal/runner uses this to check for cancellation between slices.
func (n *Network) RunUntil(end float64) { n.kernel.RunUntil(end) }

// ResetStats zeroes all counters, hourly buckets, time averages, traces
// and the soft hand-off and injected-fault tallies while keeping
// connections, estimators and T_est state — used to discard a warm-up
// period. The Result fields read from the engines and the backbone are
// not reset; they count over the Network's lifetime: DegradedBrCalcs,
// DegradedAdmissions, QoSDowngrades, QoSUpgrades and the Wired* totals.
// Neither are the audit's birth/death and hand-off message tallies,
// whose conservation law spans the whole run.
func (n *Network) ResetStats() {
	now := n.now()
	n.softSaved, n.softExpired, n.peerFaults = 0, 0, 0
	for _, c := range n.cells {
		c.counters = stats.Counters{}
		c.hourly = stats.Hourly{}
		c.exchanges = 0
		br, bu := c.engine.LastTargetReservation(), float64(c.engine.UsedBandwidth())
		c.brTW = stats.TimeWeighted{}
		c.buTW = stats.TimeWeighted{}
		c.degTW = stats.TimeWeighted{}
		c.brTW.Set(now, br)
		c.buTW.Set(now, bu)
		c.degTW.Set(now, float64(c.engine.DegradedBandwidth()))
		if c.trace != nil {
			*c.trace = Trace{}
		}
	}
}

// Snapshot builds a Result from the current statistics without
// advancing the simulation. When auditing is configured the full
// invariant check runs first — regardless of event sampling — so no
// Result is ever built from ledgers that would fail the audit.
func (n *Network) Snapshot() *Result {
	now := n.now()
	if n.cfg.Audit != nil {
		n.auditNow(now)
	}
	res := &Result{
		Duration: now,
		Cells:    make([]CellResult, len(n.cells)),
		Traces:   make(map[topology.CellID]*Trace),
	}
	maxHours := 0
	for i, c := range n.cells {
		res.Cells[i] = CellResult{
			ID:        c.id,
			Counters:  c.counters,
			PCB:       c.counters.PCB(),
			PHD:       c.counters.PHD(),
			Test:      c.engine.Test(),
			Br:        c.engine.LastTargetReservation(),
			Bu:        c.engine.UsedBandwidth(),
			AvgBr:     c.brTW.Mean(now),
			AvgBu:     c.buTW.Mean(now),
			Exchanges: c.exchanges,
		}
		res.Total.Add(&c.counters)
		res.AvgBr += res.Cells[i].AvgBr
		res.AvgBu += res.Cells[i].AvgBu
		res.Exchanges += c.exchanges
		if h := c.hourly.Hours(); h > maxHours {
			maxHours = h
		}
		if c.trace != nil {
			res.Traces[c.id] = c.trace
		}
	}
	nc := float64(len(n.cells))
	res.AvgBr /= nc
	res.AvgBu /= nc
	res.PCB = res.Total.PCB()
	res.PHD = res.Total.PHD()
	res.NCalc = res.Total.NCalc()
	res.Hourly = make([]stats.Counters, maxHours)
	for _, c := range n.cells {
		for h := 0; h < maxHours; h++ {
			hc := c.hourly.Hour(h)
			res.Hourly[h].Add(&hc)
		}
	}
	if b := n.cfg.Backbone; b != nil {
		res.WiredBlocked = b.Blocked
		res.WiredDropped = b.Dropped
		res.WiredReroutes = b.Reroutes
		res.WiredUsed = b.Graph().TotalUsed()
	}
	res.SoftSaved = n.softSaved
	res.SoftExpired = n.softExpired
	res.PeerFaults = n.peerFaults
	for _, c := range n.cells {
		l := c.engine.Ledger()
		res.DegradedBrCalcs += l.DegradedBrCalcs
		res.DegradedAdmissions += l.DegradedAdmissions
		if n.cfg.AdaptiveVideoMin > 0 {
			// multi-class downgrades without adaptive QoS; those runs
			// report no QoS adaptation.
			res.AvgDegraded += c.degTW.Mean(now)
			res.QoSDowngrades += l.QoSDowngrades
			res.QoSUpgrades += l.QoSUpgrades
		}
	}
	if n.cfg.AdaptiveVideoMin > 0 {
		res.AvgDegraded /= nc
	}
	return res
}
