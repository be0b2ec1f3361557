package core

import "fmt"

// Ledger is a consistent snapshot of an Engine's bandwidth accounting,
// taken under the engine's lock. It exists so an external checker
// (internal/audit) can verify conservation invariants — Σ bw == B_u,
// B_u + pledged ≤ C + margin, elastic min ≤ bw ≤ max — without reaching
// into unexported state or racing concurrent deployments.
type Ledger struct {
	// Static configuration echoed for bound checks.
	Capacity int
	Margin   int // HandOffMargin (CDMA soft capacity, §7)
	Degree   int
	Adaptive bool // policy runs the predictive machinery

	// Live accounting.
	Used        int // B_u as tracked incrementally
	Pledged     int // MobSpec pledge pool
	Connections int
	SumBw       int // Σ granted bandwidth over the connection table
	SumMin      int // Σ minimum QoS over the connection table

	// BadConn describes the first connection whose own record is
	// inconsistent (bw outside [min,max], non-positive min, or a stale
	// index entry); empty when the table is sound.
	BadConn string

	// LastBr is B_r^prev; Test is the current T_est (0 when non-adaptive).
	LastBr float64
	Test   float64

	// Degraded-mode accounting (unreachable neighbors, Fallback policy).
	// BrCalcs is the lifetime count of Eq. 6 evaluations;
	// DegradedBrCalcs of those, how many substituted ≥1 fallback
	// contribution; DegradedAdmissions counts admission tests decided on
	// unknown neighbor state; LastBrDegraded flags the latest B_r.
	BrCalcs            uint64
	DegradedBrCalcs    uint64
	DegradedAdmissions uint64
	LastBrDegraded     bool

	// Lifetime adaptive-QoS events: connections downgraded to fit an
	// arrival, and freed bandwidth handed back.
	QoSDowngrades uint64
	QoSUpgrades   uint64

	// Materialized Eq. 5 view accounting (see eq5cache.go): lifetime
	// full rebuilds, incremental timestamp advances, and per-connection
	// refreshes during those advances. Diagnostics for the audit sweep
	// and perf triage — a rebuild count tracking the event count means
	// the view is thrashing instead of advancing.
	Eq5Rebuilds  uint64
	Eq5Advances  uint64
	Eq5Refreshes uint64
	// Eq5Adoptions is always 0: the view never adopts a new estimator
	// generation, every Record makes the next query rebuild. The field
	// stays because the benchmark reports it as core.eq5_adoptions.
	Eq5Adoptions uint64
}

// Ledger snapshots the engine's accounting state atomically.
func (e *Engine) Ledger() Ledger {
	e.lock()
	defer e.unlock()
	l := Ledger{
		Capacity:           e.cfg.Capacity,
		Margin:             e.cfg.HandOffMargin,
		Degree:             e.cfg.Degree,
		Adaptive:           e.traits.Adaptive,
		Used:               e.used,
		Pledged:            e.pledged,
		Connections:        len(e.conns),
		LastBr:             e.lastBr,
		BrCalcs:            e.brCalcs,
		DegradedBrCalcs:    e.degradedBrCalcs,
		DegradedAdmissions: e.degradedAdmissions,
		LastBrDegraded:     e.lastBrDegraded,
		QoSDowngrades:      e.downgrades,
		QoSUpgrades:        e.upgrades,
		Eq5Rebuilds:        e.eq5.rebuilds,
		Eq5Advances:        e.eq5.advances,
		Eq5Refreshes:       e.eq5.refreshes,
	}
	if e.tc != nil {
		l.Test = e.tc.Test()
	}
	for i := range e.conns {
		c := &e.conns[i]
		l.SumBw += c.bw
		l.SumMin += c.min
		if l.BadConn == "" {
			switch {
			case c.min <= 0 || c.max < c.min:
				l.BadConn = fmt.Sprintf("conn %d: bad range [%d,%d]", c.id, c.min, c.max)
			case c.bw < c.min || c.bw > c.max:
				l.BadConn = fmt.Sprintf("conn %d: bw %d outside [%d,%d]", c.id, c.bw, c.min, c.max)
			case e.index[c.id] != i:
				l.BadConn = fmt.Sprintf("conn %d: index points at %d, stored at %d", c.id, e.index[c.id], i)
			}
		}
	}
	if len(e.index) != len(e.conns) && l.BadConn == "" {
		l.BadConn = fmt.Sprintf("index has %d entries for %d connections", len(e.index), len(e.conns))
	}
	return l
}
