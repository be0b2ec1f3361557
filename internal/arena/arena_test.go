package arena

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cellqos/internal/audit"
	"cellqos/internal/core"
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
