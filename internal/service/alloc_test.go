package service

import (
	"runtime"
	"testing"
	"time"

	"cellqos/internal/clock"
)

// TestServeInlineAllocations: an inline drive (Workers 0, no
// Checkpointer) allocates nothing per event once warm. The steady-state
// rate is the difference between a long and a short drive of the same
// seeded workload, so the warm-up's one-off growth (estimator pairs,
// connection tables, the expiry list) cancels out. The long drive's
// Report is pinned: the allocation work must not move a decision.
func TestServeInlineAllocations(t *testing.T) {
	const warm, measured = 4_000, 16_000
	drive := func(events uint64) (*Report, uint64) {
		srv := New(Config{
			Cells: meshCells(32),
			Time:  NewStepSource(0, 0.1), // 2,000 events per 200-s hold: cells fill and block
			Clock: clock.NewManual(time.Unix(0, 0)),
			Seed:  11,
		})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep := srv.Serve(events, nil)
		runtime.ReadMemStats(&after)
		return rep, after.Mallocs - before.Mallocs
	}
	_, short := drive(warm)
	rep, long := drive(warm + measured)
	perEvent := float64(int64(long)-int64(short)) / measured
	t.Logf("%.4f allocations per event (%d short, %d long)", perEvent, short, long)
	// Read before the admission closure was confined to worker
	// dispatch: 0.2501 per event, one closure per new call.
	if perEvent > 0.01 {
		t.Errorf("inline drive allocates %.4f objects per event, want ≤ 0.01", perEvent)
	}
	want := Report{
		Events: 20000, Offered: 5000, Admitted: 2818, Blocked: 2182, HandOffs: 15000,
		Completions: 2510, BrCalcs: 5006, FinalSimNow: 1999.9999999992765, DrainOK: true, FinalFlushOK: true,
	}
	if *rep != want {
		t.Errorf("report\n got %+v\nwant %+v", *rep, want)
	}
}
