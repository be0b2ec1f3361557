package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeShortRun drives the CLI end to end in-process: a short
// audited scenario must exit 0 and print the headline result lines.
func TestSmokeShortRun(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-duration", "400", "-load", "100", "-cells", "6",
		"-audit", "16", "-per-cell=false",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, frag := range []string{"policy=AC3", "requests=", "PCB=", "PHD="} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

// TestSmokeReps exercises the replication path through the runner.
func TestSmokeReps(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-duration", "300", "-load", "100", "-cells", "6",
		"-reps", "2", "-parallel", "2", "-audit", "32",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "mean over 2 reps") {
		t.Errorf("reps output missing mean line:\n%s", out.String())
	}
}

// TestSmokePerCellTable checks the per-cell table renders.
func TestSmokePerCellTable(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-duration", "300", "-load", "100", "-cells", "5", "-policy", "none"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Cell") {
		t.Errorf("per-cell table missing:\n%s", out.String())
	}
}

// TestSmokeBadFlags: usage errors and invalid scenarios must exit 2
// without running anything, with one "cellsim: " prefix and, where a
// flag is at fault, a diagnostic that names it.
func TestSmokeBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // stderr fragment; "" checks only for a diagnostic
	}{
		{[]string{"-policy", "nope"}, ""},
		{[]string{"-topology", "nope"}, ""},
		{[]string{"-direction", "sideways"}, ""},
		{[]string{"-speed", "fast"}, ""},
		{[]string{"-schedule", "sometimes"}, ""},
		{[]string{"-backbone", "bus"}, ""},
		{[]string{"-no-such-flag"}, ""},
		{[]string{"-cells", "2"}, ""},
		{[]string{"-topology", "line", "-cells", "1"}, ""},
		{[]string{"-topology", "hex", "-rows", "0"}, ""},
		{[]string{"-load", "-5"}, ""},
		{[]string{"-rvo", "1.5"}, ""},
		{[]string{"-capacity", "0", "-duration", "10"}, "capacity"},
		{[]string{"-duration", "-5"}, "-duration"},
		{[]string{"-duration", "NaN"}, "-duration"},
		{[]string{"-schedule", "daily", "-days", "-1"}, "-days"},
		{[]string{"-topology", "hex", "-persistence", "2", "-duration", "10"}, "persistence"},
		{[]string{"-speed", "-10,-5", "-duration", "10"}, "speed range"},
		{[]string{"-speed", "50,10", "-duration", "10"}, "speed range"},
		{[]string{"-speed", "NaN,NaN", "-duration", "10"}, "speed range"},
		{[]string{"-topology", "hex", "-speed", "50,10", "-duration", "10"}, "speed range"},
		{[]string{"-adaptive-video-min", "7", "-duration", "10"}, "video minimum"},
		{[]string{"-soft-overlap", "-1", "-duration", "10"}, "overlap"},
		{[]string{"-soft-overlap", "NaN", "-duration", "10"}, "overlap"},
		{[]string{"-fault-drop", "NaN", "-duration", "10"}, "fault drop"},
		{[]string{"-fault-fallback", "wishful", "-duration", "10"}, "-fault-fallback"},
		{[]string{"-target", "NaN", "-duration", "10"}, "PHD target"},
		{[]string{"-policy", "exp-dwell", "-dwell-mean", "NaN", "-duration", "10"}, "ExpDwell"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", tc.args, code, errb.String())
		}
		msg := errb.String()
		if msg == "" {
			t.Errorf("run(%v) printed no diagnostic", tc.args)
		}
		if !strings.Contains(msg, tc.want) || strings.Contains(msg, "cellsim: cellsim:") {
			t.Errorf("run(%v) stderr %q: want one \"cellsim: \" prefix and %q", tc.args, msg, tc.want)
		}
	}
}

// TestSmokeFaults runs the in-process fault model: exchanges must fail,
// the engines must degrade per the guard fallback, the invariant audit
// must stay clean, and the counters must reach the summary line.
func TestSmokeFaults(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-duration", "500", "-load", "150", "-cells", "5",
		"-fault-drop", "0.2", "-fault-fallback", "guard",
		"-audit", "16", "-per-cell=false"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "signaling faults: ") {
		t.Fatalf("fault summary missing:\n%s", s)
	}
	if strings.Contains(s, "signaling faults: 0 exchanges failed") {
		t.Errorf("20%% drop rate injected no faults:\n%s", s)
	}
}

// TestSmokeFaultFlagValidation: a bad fallback name must exit 2.
func TestSmokeFaultFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-fault-drop", "0.1", "-fault-fallback", "hope"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}
