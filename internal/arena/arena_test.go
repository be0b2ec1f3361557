package arena

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cellqos/internal/audit"
	"cellqos/internal/core"
	"cellqos/internal/runner"
)

var update = flag.Bool("update", false, "rewrite the pinned arena report")

// TestArenaGolden regenerates the full default arena and compares it
// byte-for-byte against the committed results/arena/arena.txt. Run with
// -update after an intentional change to re-pin.
func TestArenaGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full arena grid in -short mode")
	}
	out, err := Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Report()
	path := filepath.Join("..", "..", "results", "arena", "arena.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pinned report (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("arena report drifted from %s (rerun with -update if intentional)\n--- got ---\n%s", path, got)
	}
}

// TestArenaSmoke is the reduced grid the CI arena-smoke job runs under
// -race: every roster contender, one stressed load, both mixes, two
// seeds, with the runtime invariant auditor attached.
func TestArenaSmoke(t *testing.T) {
	out, err := Run(Options{
		Duration: 200,
		Seeds:    2,
		Loads:    []float64{300},
		Audit:    &audit.Checker{EveryN: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(out.Policies), len(core.PolicyNames()); got != want {
		t.Fatalf("ranked %d policies, want %d", got, want)
	}
	for _, p := range out.Policies {
		if len(p.Cells) != 2 {
			t.Fatalf("%s: %d grid cells, want 2", p.Name, len(p.Cells))
		}
		for _, c := range p.Cells {
			if c.Util <= 0 || c.Util > 1 {
				t.Errorf("%s cell (%g,%g): utilization %v out of (0,1]", p.Name, c.Load, c.Rvo, c.Util)
			}
		}
	}
	if len(out.Findings) != 5 {
		t.Fatalf("%d findings, want 5", len(out.Findings))
	}
	for _, f := range out.Findings {
		if f.Evidence == "" {
			t.Errorf("%s: empty evidence", f.ID)
		}
	}
	if len(out.Report()) == 0 {
		t.Fatal("empty report")
	}
}

// TestArenaUnknownPolicy verifies a bad roster name fails up front with
// core's roster-listing error, before any simulation runs.
func TestArenaUnknownPolicy(t *testing.T) {
	_, err := Run(Options{Policies: []string{"AC9"}})
	if err == nil {
		t.Fatal("want error for unknown policy")
	}
	if _, regErr := core.PolicyByName("AC9"); regErr == nil || err.Error() != regErr.Error() {
		t.Fatalf("want core's error, got %v", err)
	}
}

// TestRunRejectsBadOptions: an out-of-range option is an error naming
// its field, returned before any point runs. Before Options were
// checked a negative load or a voice ratio above 1 panicked in
// traffic.RateForLoad, negative seeds ran no seed and reported NaN, and
// the rest failed a point in the runner, naming a scenario rather than
// the option.
func TestRunRejectsBadOptions(t *testing.T) {
	tiny := func(o Options) Options {
		o.Policies = []string{"AC3"}
		if o.Seeds == 0 {
			o.Seeds = 1
		}
		if o.Duration == 0 {
			o.Duration = 10
		}
		return o
	}
	for _, tc := range []struct {
		name  string
		opt   Options
		field string
	}{
		{"negative load", Options{Loads: []float64{150, -5}}, "Options.Loads"},
		{"voice ratio above 1", Options{VoiceRatios: []float64{1.5}}, "Options.VoiceRatios"},
		{"voice ratio NaN", Options{VoiceRatios: []float64{math.NaN()}}, "Options.VoiceRatios"},
		{"load NaN", Options{Loads: []float64{math.NaN()}}, "Options.Loads"},
		{"load +Inf", Options{Loads: []float64{math.Inf(1)}}, "Options.Loads"},
		{"negative duration", Options{Duration: -5}, "Options.Duration"},
		{"duration NaN", Options{Duration: math.NaN()}, "Options.Duration"},
		{"negative seeds", Options{Seeds: -1}, "Options.Seeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("Run panicked: %v", v)
				}
			}()
			_, err := Run(tiny(tc.opt))
			if err == nil || !strings.HasPrefix(err.Error(), tc.field+" ") && !strings.HasPrefix(err.Error(), tc.field+":") {
				t.Fatalf("err = %v, want one naming %s", err, tc.field)
			}
		})
	}
}

// TestPointErrorNamesItsKey: a failed point comes back as its key, which
// starts with "arena/", and the cause, with no "arena: " prefix of its
// own for cmd/arena to double. The failure is injected from the progress
// sink, which sees each point before Run aggregates it.
func TestPointErrorNamesItsKey(t *testing.T) {
	injected := errors.New("injected")
	sink := runner.SinkFunc(func(p runner.Progress) {
		if p.Point.Index == 0 {
			p.Point.Err = injected
		}
	})
	_, err := Run(Options{Duration: 10, Seeds: 1, Policies: []string{"AC3"}, Loads: []float64{150}, VoiceRatios: []float64{1}, Sink: sink})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected point error", err)
	}
	if want := "arena/AC3/load150/rvo1: injected"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}
