package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeMesh drives a small full-mesh deployment over real loopback
// TCP with the post-run ledger audit enabled.
func TestSmokeMesh(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-cells", "4", "-requests", "30", "-audit"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, frag := range []string{
		"wired 4 base stations over TCP (mesh)",
		"admission requests:",
		"per admission test:",
		"bytes on the wire; decision wall p50",
		"total protocol frames sent:",
		"audit: 4 base-station ledgers verified clean",
	} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

// TestSmokeStar covers the MSC-relay topology.
func TestSmokeStar(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-cells", "4", "-requests", "30", "-mode", "star", "-audit"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wired 4 base stations over TCP (star)") {
		t.Errorf("star header missing:\n%s", out.String())
	}
}

// TestSmokeBadFlags: usage errors must exit 2 with a diagnostic.
func TestSmokeBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bus"},
		{"-no-such-flag"},
		{"-fault-fallback", "wishful"},
		{"-fault-partition", "9", "-cells", "4"},
		{"-cells", "2"},
		{"-cells", "2", "-mode", "star"},
		{"-cells", "2", "-serve", "-serve-events", "1"},
		{"-requests", "-1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) exit %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestSmokeFaultyMesh drops 15% of frames on every TCP link; the retry
// layer must keep the drive alive and the ledgers must still audit
// clean, with the fault and resilience counters reported.
func TestSmokeFaultyMesh(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-cells", "4", "-requests", "15",
		"-fault-drop", "0.15", "-call-timeout", "20ms", "-audit"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, frag := range []string{
		"fault injection: drop=0.15",
		"faults injected:",
		"degraded mode:",
		"audit: 4 base-station ledgers verified clean",
	} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
	if strings.Contains(out.String(), "faults injected: 0 dropped") {
		t.Errorf("drop faults were configured but none injected:\n%s", out.String())
	}
}

// TestSmokeFaultPartition black-holes cell 0's outbound frames for the
// whole drive: every query by or of cell 0 must fail, degrade per the
// guard fallback, trip breakers — and the ledgers must still audit clean.
func TestSmokeFaultPartition(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-cells", "4", "-requests", "15",
		"-fault-partition", "0", "-fault-fallback", "guard",
		"-call-timeout", "10ms", "-call-retries", "1",
		"-breaker-threshold", "3", "-audit"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "audit: 4 base-station ledgers verified clean") {
		t.Errorf("audit line missing:\n%s", s)
	}
	if strings.Contains(s, "degraded mode: 0 failed queries") {
		t.Errorf("partitioned cell produced no failed queries:\n%s", s)
	}
	if strings.Contains(s, "0 degraded B_r calcs") {
		t.Errorf("partition did not force degraded B_r computations:\n%s", s)
	}
}
