package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"cellqos/internal/cellnet"
	"cellqos/internal/core"
	"cellqos/internal/mobility"
	"cellqos/internal/topology"
	"cellqos/internal/traffic"
	"cellqos/internal/wired"
)

// testConfig builds a small paper-style ring scenario.
func testConfig(load float64, seed uint64) cellnet.Config {
	top := topology.Ring(6)
	cfg := cellnet.PaperBase()
	cfg.Topology = top
	cfg.Admission = core.MustPolicy("AC3")
	cfg.Mix = traffic.Mix{VoiceRatio: 1.0}
	cfg.Mobility = &mobility.Linear{Top: top, DiameterKm: 1, Speed: mobility.HighMobility}
	cfg.Schedule = traffic.Constant{Lambda: traffic.RateForLoad(load, cfg.Mix, cfg.MeanLifetime), MinKmh: 80, MaxKmh: 120}
	cfg.Seed = seed
	return cfg
}

// fingerprint summarizes a result's simulation-determined content
// (excluding wall time, which varies run to run).
func fingerprint(p PointResult) string {
	r := p.Result
	if r == nil {
		return fmt.Sprintf("err=%v", p.Err)
	}
	return fmt.Sprintf("key=%s total=%+v pcb=%v phd=%v ncalc=%v avgbr=%v avgbu=%v events=%d",
		p.Key, r.Total, r.PCB, r.PHD, r.NCalc, r.AvgBr, r.AvgBu, p.Events)
}

func sweep(t *testing.T, parallel, chunks int) []PointResult {
	t.Helper()
	var scens []Scenario
	for i := 0; i < 8; i++ {
		load := 100 + 25*float64(i)
		scens = append(scens, Scenario{
			Key:      fmt.Sprintf("load%g", load),
			Config:   testConfig(load, 1),
			Duration: 300,
		})
	}
	r := &Runner{Parallel: parallel, Chunks: chunks}
	points, err := r.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(points); err != nil {
		t.Fatal(err)
	}
	return points
}

// TestDeterministicAcrossWorkers is the runner's core guarantee: the
// same scenario list and seed produce identical results at Parallel=1
// and Parallel=8, and regardless of the cancellation-check slicing.
func TestDeterministicAcrossWorkers(t *testing.T) {
	base := sweep(t, 1, 1)
	for _, variant := range []struct{ parallel, chunks int }{{8, 1}, {8, 32}, {3, 7}} {
		got := sweep(t, variant.parallel, variant.chunks)
		if len(got) != len(base) {
			t.Fatalf("point count %d != %d", len(got), len(base))
		}
		for i := range base {
			if fingerprint(got[i]) != fingerprint(base[i]) {
				t.Errorf("parallel=%d chunks=%d point %d:\n got %s\nwant %s",
					variant.parallel, variant.chunks, i, fingerprint(got[i]), fingerprint(base[i]))
			}
		}
	}
}

// TestResultOrderIsPointOrder checks results come back merged by index
// even though completion order differs (long point first).
func TestResultOrderIsPointOrder(t *testing.T) {
	scens := []Scenario{
		{Key: "slow", Config: testConfig(300, 1), Duration: 400},
		{Key: "fast", Config: testConfig(60, 1), Duration: 50},
	}
	r := &Runner{Parallel: 2}
	points, err := r.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Key != "slow" || points[1].Key != "fast" {
		t.Fatalf("order broken: %s, %s", points[0].Key, points[1].Key)
	}
	for i, p := range points {
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
	}
}

// TestCancellationReturnsPartialResults cancels after the first point
// completes: the sweep returns the context error, finished points keep
// their results, and the rest carry the error.
func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var scens []Scenario
	for i := 0; i < 4; i++ {
		scens = append(scens, Scenario{Key: fmt.Sprintf("p%d", i), Config: testConfig(150, 1), Duration: 2000})
	}
	r := &Runner{
		Parallel: 1,
		Sink:     SinkFunc(func(p Progress) { cancel() }), // cancel as soon as anything finishes
	}
	points, err := r.Run(ctx, scens)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if points[0].Err != nil || points[0].Result == nil {
		t.Fatalf("first point should have completed: %+v", points[0].Err)
	}
	var canceled int
	for _, p := range points[1:] {
		if errors.Is(p.Err, context.Canceled) && p.Result == nil {
			canceled++
		}
	}
	if canceled != len(points)-1 {
		t.Fatalf("canceled points = %d, want %d", canceled, len(points)-1)
	}
	if s := Summarize(points); s.Errored != canceled || s.Points != len(points) {
		t.Fatalf("summary %+v inconsistent with %d canceled", s, canceled)
	}
}

// TestCancellationMidPoint verifies a canceled context stops a running
// point at a slice boundary instead of completing the whole run.
func TestCancellationMidPoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	r := &Runner{Parallel: 1}
	points, err := r.Run(ctx, []Scenario{{Key: "x", Config: testConfig(150, 1), Duration: 1e9}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if points[0].Result != nil || !errors.Is(points[0].Err, context.Canceled) {
		t.Fatalf("point should be canceled: %+v", points[0])
	}
}

// TestPanicIsolatedToPoint: a panicking point becomes an error on that
// point while the rest of the sweep completes normally.
func TestPanicIsolatedToPoint(t *testing.T) {
	boom := Scenario{Key: "boom", Config: testConfig(100, 1), Duration: 50}
	boom.Post = func(*cellnet.Network, *cellnet.Result) any { panic("kaboom") }
	scens := []Scenario{
		{Key: "ok0", Config: testConfig(100, 1), Duration: 50},
		boom,
		{Key: "ok1", Config: testConfig(100, 1), Duration: 50},
	}
	r := &Runner{Parallel: 2}
	points, err := r.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Err != nil || points[2].Err != nil {
		t.Fatalf("healthy points errored: %v / %v", points[0].Err, points[2].Err)
	}
	var pe *PanicError
	if !errors.As(points[1].Err, &pe) {
		t.Fatalf("point 1 err = %v, want *PanicError", points[1].Err)
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("panic error lost the value: %v", pe)
	}
	if points[1].Result != nil {
		t.Fatal("panicked point kept a partial Result")
	}
}

// TestInvalidConfigIsPointError: a bad config fails its point, not the
// sweep, and FirstError names the point's key once, then the cause.
func TestInvalidConfigIsPointError(t *testing.T) {
	bad := testConfig(100, 1)
	bad.Capacity = -1
	scens := []Scenario{
		{Key: "bad", Config: bad, Duration: 50},
		{Key: "good", Config: testConfig(100, 1), Duration: 50},
	}
	r := &Runner{}
	points, err := r.Run(context.Background(), scens)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Err == nil {
		t.Fatal("invalid config did not error")
	}
	if points[1].Err != nil || points[1].Result == nil {
		t.Fatalf("good point affected: %v", points[1].Err)
	}
	if got, want := fmt.Sprint(FirstError(points)), "bad: core: capacity must be positive, got -1"; got != want {
		t.Fatalf("FirstError = %q, want %q", got, want)
	}
}

// TestRunRejectsBadDuration: a run length that is not finite and > 0
// fails Run up front with an error naming the scenario, instead of
// running no events (zero, negative) or never ending (NaN, +Inf). Each
// row runs under a watchdog so that a hang fails instead of stalling.
func TestRunRejectsBadDuration(t *testing.T) {
	for _, d := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(d), func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := (&Runner{}).Run(context.Background(),
					[]Scenario{{Key: "bad-length", Config: testConfig(100, 1), Duration: d}})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), `"bad-length"`) {
					t.Fatalf("Run with duration %v: err %v, want one naming the scenario", d, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("Run with duration %v still running after 10 s", d)
			}
		})
	}
}

// TestRepsExpandWithDerivedSeeds: Reps=3 yields three points whose
// seeds differ, so their trajectories diverge.
func TestRepsExpandWithDerivedSeeds(t *testing.T) {
	r := &Runner{Parallel: 3}
	points, err := r.Run(context.Background(), []Scenario{
		{Key: "rep", Config: testConfig(300, 10), Duration: 300, Reps: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	for i, p := range points {
		if p.Rep != i || p.Scenario != 0 {
			t.Fatalf("point %d: rep=%d scenario=%d", i, p.Rep, p.Scenario)
		}
		if want := fmt.Sprintf("rep#%d", i); p.Key != want {
			t.Fatalf("key %q, want %q", p.Key, want)
		}
	}
	if points[0].Result.Total == points[1].Result.Total &&
		points[1].Result.Total == points[2].Result.Total {
		t.Fatal("all three replications produced identical counters; seeds not derived")
	}
}

// TestRepsRejectSharedBackbone: replicating a scenario whose config
// carries a Backbone would share mutable state across Networks.
func TestRepsRejectSharedBackbone(t *testing.T) {
	cfg := testConfig(100, 1)
	cfg.Backbone = wired.MeshOfBSs(cfg.Topology, 1000, 1000, wired.FullReroute)
	r := &Runner{}
	_, err := r.Run(context.Background(), []Scenario{{Key: "bb", Config: cfg, Duration: 10, Reps: 2}})
	if err == nil || !strings.Contains(err.Error(), "Backbone") {
		t.Fatalf("err = %v, want shared-backbone rejection", err)
	}
}

// TestPostRunsAndStoresExtra: the Post hook sees the live network and
// its return value lands in Extra.
func TestPostRunsAndStoresExtra(t *testing.T) {
	s := Scenario{Key: "post", Config: testConfig(150, 1), Duration: 100}
	s.Post = func(n *cellnet.Network, res *cellnet.Result) any {
		if n == nil || res == nil {
			t.Error("Post called without network or result")
		}
		return n.EventsFired()
	}
	r := &Runner{}
	points, err := r.Run(context.Background(), []Scenario{s})
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := points[0].Extra.(uint64)
	if !ok || ev == 0 || ev != points[0].Events {
		t.Fatalf("Extra = %v, want events %d", points[0].Extra, points[0].Events)
	}
}

// TestSinkSeesEveryPoint: the progress sink fires once per point with
// monotone Done counts.
func TestSinkSeesEveryPoint(t *testing.T) {
	var got []int
	r := &Runner{
		Parallel: 4,
		Sink:     SinkFunc(func(p Progress) { got = append(got, p.Done) }),
	}
	var scens []Scenario
	for i := 0; i < 6; i++ {
		scens = append(scens, Scenario{Config: testConfig(100, uint64(i+1)), Duration: 50})
	}
	if _, err := r.Run(context.Background(), scens); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scens) {
		t.Fatalf("sink calls = %d, want %d", len(got), len(scens))
	}
	for i, d := range got {
		if d != i+1 {
			t.Fatalf("Done sequence %v not monotone", got)
		}
	}
}
