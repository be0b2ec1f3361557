package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeList: -list must enumerate the full experiment registry.
func TestSmokeList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	lines := strings.Count(strings.TrimRight(out.String(), "\n"), "\n") + 1
	if lines != 21 {
		t.Errorf("-list printed %d experiments, want 21:\n%s", lines, out.String())
	}
}

// TestSmokeRunOne runs one reduced-scale experiment with the audit on
// and CSV output, checking the report frame and the CSV file.
func TestSmokeRunOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (reduced-scale) experiment")
	}
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{
		"-run", "fig7", "-duration", "400", "-loads", "100",
		"-audit", "64", "-out", dir,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, frag := range []string{"=== fig7", "paper:", "(fig7 in"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "fig7*.csv")); len(m) == 0 {
		t.Errorf("-out wrote no fig7 CSV into %s", dir)
	}
}

// TestSmokeBadFlags: usage errors must exit 2 with a diagnostic that,
// where a flag is at fault, names it. Each row runs under a 10 s
// watchdog, so that a run that never ends fails instead of stalling,
// and a panic fails instead of killing the binary.
func TestSmokeBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // stderr fragment; "" checks only for a diagnostic
	}{
		{[]string{}, ""},
		{[]string{"-run", "no-such-experiment"}, ""},
		{[]string{"-run", "fig7", "-loads", "100,banana"}, "-loads"},
		{[]string{"-no-such-flag"}, ""},
		{[]string{"-run", "fig8", "-loads", "150", "-duration", "-5"}, "-duration"},
		{[]string{"-run", "fig8", "-loads", "150", "-duration", "NaN"}, "-duration"},
		{[]string{"-run", "fig8", "-loads", "NaN", "-duration", "10"}, "-loads"},
		{[]string{"-run", "fig8", "-loads", "-5", "-duration", "10"}, "-loads"},
		{[]string{"-run", "fig10", "-trace-duration", "NaN"}, "-trace-duration"},
		{[]string{"-run", "fig10", "-trace-duration", "-5"}, "-trace-duration"},
		{[]string{"-run", "fig14", "-days", "-1"}, "-days"},
	}
	for _, tc := range cases {
		type outcome struct {
			code   int
			stderr string
		}
		done := make(chan outcome, 1)
		go func() {
			var out, errb bytes.Buffer
			defer func() {
				if v := recover(); v != nil {
					done <- outcome{-1, fmt.Sprintf("panic: %v", v)}
				}
			}()
			code := run(tc.args, &out, &errb)
			done <- outcome{code, errb.String()}
		}()
		var o outcome
		select {
		case o = <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("run(%v) still running after 10 s", tc.args)
			continue
		}
		if o.code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", tc.args, o.code, o.stderr)
		}
		if o.stderr == "" {
			t.Errorf("run(%v) printed no diagnostic", tc.args)
		}
		if !strings.Contains(o.stderr, tc.want) {
			t.Errorf("run(%v) stderr %q, want %q", tc.args, o.stderr, tc.want)
		}
	}
}
