// Package runner executes simulation scenarios on a worker pool.
//
// A Scenario is a declarative point to run — a cellnet.Config plus a
// duration and an optional replication count — and a Runner fans a list
// of them out over GOMAXPROCS workers (overridable), with
// context.Context cancellation, per-point panic capture, and a pluggable
// progress sink. Results are merged by point index, never by completion
// order, so the output is deterministic: for a fixed seed, the same
// scenario list produces identical Results at Parallel=1 and
// Parallel=N.
//
// The determinism contract rests on the "one Network per goroutine"
// invariant: each point builds its own cellnet.Network from its own
// Config inside the worker, and nothing mutable is shared between
// points. Callers must honor the same rule when building Scenarios —
// in particular a Config's Backbone pointer is mutable state that may
// belong to at most one Network (cellnet.New enforces this).
//
// internal/experiments expresses every reproduced figure and table as a
// Scenario list on top of this package; cmd/experiments and cmd/cellsim
// expose the worker pool as -parallel / -timeout flags.
package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cellqos/internal/cellnet"
	"cellqos/internal/clock"
)

// Scenario is one declarative simulation point.
type Scenario struct {
	// Key labels the point in progress output and error messages.
	Key string
	// Config fully describes the network; it must be freshly built for
	// this scenario (mutable parts such as Backbone cannot be shared).
	Config cellnet.Config
	// Duration is the simulated time to run, in seconds: finite and > 0.
	Duration float64
	// Reps replicates the scenario with derived seeds Config.Seed,
	// Config.Seed+1, …, Config.Seed+Reps-1. Zero or one means a single
	// run. Scenarios with a Backbone cannot be replicated (the pointer
	// would be shared across Networks).
	Reps int
	// Post, when non-nil, runs in the worker after the simulation
	// finishes, with the live Network for state only a Result cannot
	// carry (e.g. per-engine controller counters). Its return value is
	// stored in PointResult.Extra.
	Post func(*cellnet.Network, *cellnet.Result) any
}

// reps returns the effective replication count.
func (s Scenario) reps() int {
	if s.Reps < 2 {
		return 1
	}
	return s.Reps
}

// PointResult is the outcome of one expanded scenario point.
type PointResult struct {
	// Index is the position in the expanded point list (scenario-major,
	// then replication); results are always returned in this order.
	Index int
	// Scenario is the index of the originating Scenario.
	Scenario int
	// Rep is the replication number within the scenario (0-based).
	Rep int
	// Key is the scenario key, suffixed with "#rep" for replications.
	Key string
	// Result holds the simulation outcome; nil when Err is set.
	Result *cellnet.Result
	// Extra is whatever the scenario's Post hook returned.
	Extra any
	// Err is non-nil when the point failed: an invalid config, a
	// captured worker panic (*PanicError), or the context's error for
	// points canceled before or during their run.
	Err error
	// Wall is the real time the point took; Events the simulation
	// events it fired. Unlike Result these vary run to run — exclude
	// them from any determinism comparison.
	Wall   time.Duration
	Events uint64
}

// PanicError wraps a panic captured in a worker so one bad point cannot
// kill the sweep.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: worker panic: %v\n%s", e.Value, e.Stack)
}

// Progress is one per-point notification to a Sink.
type Progress struct {
	// Done counts finished points (including failed ones); Total is the
	// expanded point count.
	Done, Total int
	// Point is the finished point.
	Point *PointResult
}

// EventsPerSec is the point's simulation throughput.
func (p Progress) EventsPerSec() float64 {
	if p.Point == nil || p.Point.Wall <= 0 {
		return 0
	}
	return float64(p.Point.Events) / p.Point.Wall.Seconds()
}

// Sink observes sweep progress. The Runner serializes calls, so
// implementations need no locking of their own.
type Sink interface {
	Point(Progress)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Progress)

// Point implements Sink.
func (f SinkFunc) Point(p Progress) { f(p) }

// Runner executes scenario lists. The zero value is ready to use.
type Runner struct {
	// Parallel is the worker count; zero or negative means GOMAXPROCS.
	Parallel int
	// Sink, when non-nil, receives a Progress per finished point.
	Sink Sink
	// Chunks is how many slices each point's duration is cut into for
	// cancellation checks (default 32): a canceled context stops a
	// running point at the next slice boundary instead of after the
	// full run. Slicing does not affect results — the event kernel
	// fires the same events either way.
	Chunks int
}

// point is one expanded (scenario, rep) cell.
type point struct {
	scenario int
	rep      int
	key      string
	cfg      cellnet.Config
	duration float64
	post     func(*cellnet.Network, *cellnet.Result) any
}

// expand flattens scenarios into points, scenario-major.
func expand(scenarios []Scenario) ([]point, error) {
	var points []point
	for si, s := range scenarios {
		key := s.Key
		if key == "" {
			key = fmt.Sprintf("scenario-%d", si)
		}
		if !(s.Duration > 0 && !math.IsInf(s.Duration, 1)) {
			return nil, fmt.Errorf("runner: scenario %q: duration %v must be finite and > 0", key, s.Duration)
		}
		if s.reps() > 1 && s.Config.Backbone != nil {
			return nil, fmt.Errorf("runner: scenario %q: Reps=%d with a shared Backbone "+
				"(build one Backbone per run instead)", key, s.Reps)
		}
		for rep := 0; rep < s.reps(); rep++ {
			p := point{
				scenario: si,
				rep:      rep,
				key:      key,
				cfg:      s.Config,
				duration: s.Duration,
				post:     s.Post,
			}
			if s.reps() > 1 {
				p.key = fmt.Sprintf("%s#%d", key, rep)
				p.cfg.Seed = s.Config.Seed + uint64(rep)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// Run executes every scenario point and returns one PointResult per
// point, ordered by point index regardless of completion order. On
// cancellation it returns the context's error together with partial
// results: points that finished before the cancel carry their Result,
// the rest carry the context error in Err. A panicking point is
// converted to an error on that point without affecting the others.
func (r *Runner) Run(ctx context.Context, scenarios []Scenario) ([]PointResult, error) {
	points, err := expand(scenarios)
	if err != nil {
		return nil, err
	}
	out := make([]PointResult, len(points))
	workers := r.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}

	var (
		next   atomic.Int64
		done   atomic.Int64
		sinkMu sync.Mutex
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(points) {
					return
				}
				out[i] = r.runPoint(ctx, points[i], i)
				n := int(done.Add(1))
				if r.Sink != nil {
					sinkMu.Lock()
					r.Sink.Point(Progress{Done: n, Total: len(points), Point: &out[i]})
					sinkMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// runPoint executes one point, capturing panics as errors.
func (r *Runner) runPoint(ctx context.Context, p point, i int) (res PointResult) {
	res = PointResult{Index: i, Scenario: p.scenario, Rep: p.rep, Key: p.key}
	defer func() {
		if v := recover(); v != nil {
			res.Result = nil
			res.Extra = nil
			res.Err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	// Wall-clock here feeds only PointResult.Wall (progress sinks and
	// operator diagnostics), never Result or Report bytes — the golden
	// corpus stays byte-identical whatever this reads. Read through
	// internal/clock, the module's one approved wall-clock source.
	wall := clock.Wall{}
	start := wall.Now()
	n, err := cellnet.New(p.cfg)
	if err != nil {
		res.Err = err // FirstError names the point's key
		return res
	}
	chunks := r.Chunks
	if chunks <= 0 {
		chunks = 32
	}
	for c := 1; c <= chunks; c++ {
		if err := ctx.Err(); err != nil {
			res.Err = err
			return res
		}
		end := p.duration * float64(c) / float64(chunks)
		if c == chunks {
			end = p.duration
		}
		n.RunUntil(end)
	}
	res.Result = n.Snapshot()
	res.Events = n.EventsFired()
	res.Wall = wall.Since(start)
	if p.post != nil {
		res.Extra = p.post(n, res.Result)
	}
	return res
}

// FirstError returns the first point error in index order, or nil.
func FirstError(points []PointResult) error {
	for i := range points {
		if points[i].Err != nil {
			return fmt.Errorf("%s: %w", points[i].Key, points[i].Err)
		}
	}
	return nil
}

// Results projects the point list onto its Results, in point order.
// Callers that already checked FirstError can index it safely.
func Results(points []PointResult) []*cellnet.Result {
	out := make([]*cellnet.Result, len(points))
	for i := range points {
		out[i] = points[i].Result
	}
	return out
}
