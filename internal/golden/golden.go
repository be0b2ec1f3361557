// Package golden pins canonical outputs across PRs. A golden file holds
// the exact bytes a computation produced when its behavior was last
// reviewed; the corpus test (corpus_test.go) regenerates every
// experiment's Report.Bytes at reduced scale and fails on any drift with
// a readable first-divergence diff. Report.Bytes is byte-deterministic
// at any worker count (PR 1), which is what makes exact comparison
// meaningful.
//
// Intentional behavior changes regenerate the corpus:
//
//	go test ./internal/golden/ -update
//
// and the resulting testdata/golden/*.golden diffs are reviewed like
// code — they are the paper-reproduction numbers changing.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output instead of comparing")

// Path returns the canonical location of a named golden file, relative
// to the test's working directory (the package directory under go test).
func Path(name string) string { return filepath.Join("testdata", "golden", name+".golden") }

// Check compares got against the stored golden file for name, failing
// the test with a first-divergence diff on mismatch. Under -update it
// rewrites the file instead and never fails.
func Check(t *testing.T, name string, got []byte) {
	t.Helper()
	p := Path(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden: wrote %s (%d bytes)", p, len(got))
		return
	}
	want, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("golden: no stored output for %q (generate with: go test ./internal/golden/ -update): %v", name, err)
	}
	if d, ok := Diff(want, got); !ok {
		t.Errorf("golden: %q drifted from %s — simulation semantics changed.\n%s\nIf the change is intentional, regenerate with: go test ./internal/golden/ -update", name, p, d)
	}
}

// Diff compares expected against actual bytes line by line. ok is true
// when they are identical; otherwise the returned report pins the first
// diverging line with both versions, which for Report.Bytes output reads
// as "which table row of which experiment moved".
func Diff(want, got []byte) (report string, ok bool) {
	if bytes.Equal(want, got) {
		return "", true
	}
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  want: %s\n  got:  %s\n(%d lines stored, %d lines produced)",
				i+1, wl[i], gl[i], len(wl), len(gl)), false
		}
	}
	// Equal common prefix: one output is a truncation of the other.
	short, long, which := wl, gl, "produced output adds"
	if len(gl) < len(wl) {
		short, long, which = gl, wl, "produced output is missing"
	}
	return fmt.Sprintf("outputs agree for %d lines, then %s %d line(s), starting with:\n  %s",
		len(short), which, len(long)-len(short), long[len(short)]), false
}
