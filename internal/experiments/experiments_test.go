package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"cellqos/internal/audit"
)

// quickOpt shrinks runs so the whole suite stays test-sized; shape
// assertions are correspondingly lenient. Every experiment test runs
// with the invariant audit attached (sampled; full check per Snapshot).
func quickOpt() Options {
	return Options{
		Duration:      900,
		TraceDuration: 600,
		Days:          1,
		Loads:         []float64{100, 300},
		Seed:          7,
		Audit:         &audit.Checker{EveryN: 64},
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	opt := quickOpt()
	opt.Days = 0 // fig14 is exercised separately (it dominates runtime)
	for _, e := range All() {
		if e.ID == "fig14" {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID {
				t.Fatalf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			if rep.Title == "" || rep.PaperClaim == "" {
				t.Fatal("report missing title or claim")
			}
			if len(rep.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, lt := range rep.Tables {
				out := lt.Table.String()
				if len(strings.Split(strings.TrimSpace(out), "\n")) < 3 {
					t.Fatalf("table %q has no data rows:\n%s", lt.Label, out)
				}
				if csv := lt.Table.CSV(); !strings.Contains(csv, ",") {
					t.Fatalf("CSV malformed: %s", csv)
				}
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig8"); !ok {
		t.Fatal("fig8 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	// IDs are unique.
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
}

// parse helpers for table CSV assertions.
func csvRows(tb LabeledTable) [][]string {
	lines := strings.Split(strings.TrimSpace(tb.Table.CSV()), "\n")
	var rows [][]string
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return rows
}

func parseProb(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return v
}

func TestFig8ShapeAC3MeetsTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	opt := quickOpt()
	opt.Duration = 3000
	rep, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range rep.Tables {
		for _, row := range csvRows(lt) {
			if phd := parseProb(row[3]); phd > 0.02 {
				t.Errorf("%s load=%s Rvo=%s: PHD %v far above target", lt.Label, row[0], row[1], phd)
			}
		}
	}
}

func TestFig13ShapeNCalc(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := Fig13(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range rep.Tables {
		for _, row := range csvRows(lt) {
			nc := parseProb(row[2])
			switch row[1] {
			case "AC1":
				if nc != 1 {
					t.Errorf("AC1 Ncalc = %v, want 1", nc)
				}
			case "AC2":
				if nc != 3 {
					t.Errorf("AC2 Ncalc = %v, want 3", nc)
				}
			case "AC3":
				if nc < 1 || nc > 3 {
					t.Errorf("AC3 Ncalc = %v outside [1,3]", nc)
				}
			}
		}
	}
}

func TestFig9ShapeBrMonotoneBroadly(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	opt := quickOpt()
	opt.Loads = []float64{60, 300}
	rep, err := Fig9(opt)
	if err != nil {
		t.Fatal(err)
	}
	// Within each (mobility, Rvo) group, B_r at load 300 must exceed B_r
	// at load 60 (monotone increase per the paper).
	for _, lt := range rep.Tables {
		rows := csvRows(lt)
		for i := 0; i+1 < len(rows); i += 2 {
			lo, hi := parseProb(rows[i][2]), parseProb(rows[i+1][2])
			if rows[i][1] != rows[i+1][1] {
				t.Fatalf("row pairing broken: %v / %v", rows[i], rows[i+1])
			}
			if hi <= lo {
				t.Errorf("%s Rvo=%s: avgBr(300)=%v !> avgBr(60)=%v", lt.Label, rows[i][1], hi, lo)
			}
		}
	}
}

func TestTable3ShapeCellOne(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	rep, err := Table3(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, lt := range rep.Tables {
		rows := csvRows(lt)
		if got := parseProb(rows[0][2]); got != 0 {
			t.Errorf("%s: cell <1> PHD = %v, want 0 (no incoming hand-offs)", lt.Label, got)
		}
	}
	// AC1's cell <1> accepts everything under one-way flow.
	ac1 := csvRows(rep.Tables[0])
	if got := parseProb(ac1[0][1]); got > 0.05 {
		t.Errorf("AC1 cell <1> PCB = %v, paper reports 0", got)
	}
}

func TestFig14Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("long time-varying run")
	}
	opt := quickOpt()
	rep, err := Fig14(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("fig14 tables = %d, want 2", len(rep.Tables))
	}
	probs := csvRows(rep.Tables[1])
	if len(probs) < 24*3 {
		t.Fatalf("fig14 probability rows = %d, want ≥ 72 (24h × 3 schemes)", len(probs))
	}
	// Night hours (hour 2) have negligible blocking for every scheme.
	for _, row := range probs {
		if row[0] == "2" {
			if pcb := parseProb(row[2]); pcb > 0.1 {
				t.Errorf("night-hour PCB = %v for %s", pcb, row[1])
			}
		}
	}
}

// TestReportDeterministicAcrossWorkers is the end-to-end determinism
// guarantee: a full experiment serialized with Report.Bytes is
// byte-identical whether the sweep ran on one worker or eight.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	opt := quickOpt()
	opt.Parallel = 1
	rep1, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 8
	rep8, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	b1, b8 := rep1.Bytes(), rep8.Bytes()
	if len(b1) == 0 {
		t.Fatal("empty serialized report")
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("reports differ between parallel=1 and parallel=8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s", b1, b8)
	}
}

// TestCanceledContextAborts: a pre-canceled context makes an experiment
// fail fast with context.Canceled instead of running the sweep.
func TestCanceledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := quickOpt()
	opt.Context = ctx
	if _, err := Fig8(opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMetroShardedDeterministic: the async metro experiment — which
// itself compares shard counts 1/2/8 and embeds an invariance verdict —
// serializes identically across two full executions.
func TestMetroShardedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	opt := quickOpt()
	opt.Duration = 300
	a, err := MetroSharded(opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MetroSharded(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("metro-sharded reports differ between two identical runs")
	}
	if !bytes.Contains(a.Bytes(), []byte("shard-count invariance,identical")) {
		t.Fatalf("metro-sharded verdict not 'identical':\n%s", a.Bytes())
	}
}

// TestBadOptionsAreErrors: an out-of-range option is an error naming its
// field, returned before any point runs. Before Options were checked a
// negative load panicked in traffic.RateForLoad, negative hours ran the
// full two days, and the rest failed a point in the runner, naming a
// scenario rather than the option.
func TestBadOptionsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		run   func(Options) (*Report, error)
		set   func(*Options)
		field string
	}{
		{"fig7 negative load", Fig7, func(o *Options) { o.Loads = []float64{100, -5} }, "Options.Loads"},
		{"fig13 negative load", Fig13, func(o *Options) { o.Loads = []float64{-1} }, "Options.Loads"},
		{"fig12 negative load", Fig12, func(o *Options) { o.Loads = []float64{-300} }, "Options.Loads"},
		{"fig14 negative days", Fig14, func(o *Options) { o.Days = -1 }, "Options.Days"},
		{"fig14 negative hours", Fig14, func(o *Options) { o.Fig14Hours = -2 }, "Options.Fig14Hours"},
		{"fig8 duration NaN", Fig8, func(o *Options) { o.Duration = math.NaN() }, "Options.Duration"},
		{"fig10 negative trace duration", Fig10, func(o *Options) { o.TraceDuration = -1 }, "Options.TraceDuration"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("panicked: %v", v)
				}
			}()
			opt := quickOpt()
			tc.set(&opt)
			_, err := tc.run(opt)
			if err == nil || !strings.HasPrefix(err.Error(), tc.field+" ") && !strings.HasPrefix(err.Error(), tc.field+":") {
				t.Fatalf("err = %v, want one naming %s", err, tc.field)
			}
		})
	}
}
