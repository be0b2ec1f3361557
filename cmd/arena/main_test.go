package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cellqos/internal/core"
)

// runWatched drives the CLI in-process under a 10 s watchdog, so that
// a run that never ends fails the test (exit -2) instead of stalling
// it, and a panic fails it (exit -1) instead of killing the binary.
func runWatched(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	type outcome struct {
		code           int
		stdout, stderr string
	}
	done := make(chan outcome, 1)
	go func() {
		var out, errb bytes.Buffer
		defer func() {
			if v := recover(); v != nil {
				done <- outcome{-1, out.String(), fmt.Sprintf("panic: %v", v)}
			}
		}()
		code := run(args, &out, &errb)
		done <- outcome{code, out.String(), errb.String()}
	}()
	select {
	case o := <-done:
		return o.code, o.stdout, o.stderr
	case <-time.After(10 * time.Second):
		t.Errorf("run(%v) still running after 10 s", args)
		return -2, "", ""
	}
}

// TestList: -list prints the ten roster names, one a line, in the
// order the arena ranks them.
func TestList(t *testing.T) {
	code, out, errb := runWatched(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	want := []string{"AC1", "AC2", "AC3", "static", "none",
		"mob-spec", "exp-dwell", "guard-dynamic", "multi-class", "token-bucket"}
	if got := strings.Fields(out); !slices.Equal(got, want) {
		t.Fatalf("-list printed %q, want %q", got, want)
	}
}

// TestUnknownPolicy: an unknown contender exits 1 with core's error,
// which lists the roster.
func TestUnknownPolicy(t *testing.T) {
	code, _, errb := runWatched(t, "-policies", "AC9")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb)
	}
	_, err := core.PolicyByName("AC9")
	if want := "arena: " + err.Error() + "\n"; errb != want {
		t.Fatalf("stderr %q, want %q", errb, want)
	}
}

// TestBadFlags: a numeric flag out of range exits 2 before any run,
// with one "arena: " prefix and a diagnostic naming the flag. Every
// row narrows the grid to one tiny point and sets the bad value last,
// where it wins, so a check that is missing shows as a quick wrong exit
// rather than a long run.
func TestBadFlags(t *testing.T) {
	small := []string{"-duration", "10", "-seeds", "1", "-policies", "AC3", "-loads", "150", "-rvo", "1"}
	for _, tc := range []struct{ flag, value string }{
		{"-duration", "NaN"},
		{"-duration", "-5"},
		{"-duration", "+Inf"},
		{"-seeds", "-1"},
		{"-loads", "-5"},
		{"-loads", "NaN"},
		{"-loads", "150,+Inf"},
		{"-rvo", "1.5"},
		{"-rvo", "NaN"},
	} {
		code, _, errb := runWatched(t, append(slices.Clone(small), tc.flag, tc.value)...)
		if code != 2 {
			t.Errorf("%s %s: exit %d, want 2 (stderr: %s)", tc.flag, tc.value, code, errb)
		}
		if !strings.HasPrefix(errb, "arena: "+tc.flag+" ") || strings.Count(errb, "arena:") != 1 {
			t.Errorf("%s %s: stderr %q, want one \"arena: \" prefix naming %s", tc.flag, tc.value, errb, tc.flag)
		}
	}
}
