package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeModule lays out a throw-away module named cellqos (the module
// path nodeterm's wall-clock rule keys on) with one package, stdlib
// imports only.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "p"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"go.mod": "module cellqos\n\ngo 1.22\n", "p/p.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRun drives the one code path the command has, end to end: load,
// analyze, print, exit status.
func TestRun(t *testing.T) {
	clean := "package p\n\nfunc Add(a, b int) int { return a + b }\n"
	wallClock := "package p\n\nimport \"time\"\n\nfunc Stamp() time.Time {\n\treturn time.Now()\n}\n"

	t.Run("clean", func(t *testing.T) {
		var stderr strings.Builder
		if code := run(writeModule(t, clean), nil, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("exit %d, stderr %q; want 0 and no output", code, stderr.String())
		}
	})
	t.Run("finding", func(t *testing.T) {
		var stderr strings.Builder
		code := run(writeModule(t, wallClock), []string{"./..."}, &stderr)
		if code != 2 {
			t.Fatalf("exit %d, stderr %q; want 2", code, stderr.String())
		}
		line := regexp.MustCompile(`^\S*p\.go:6:9: time\.Now is wall clock.* \[nodeterm\]\n$`)
		if !line.MatchString(stderr.String()) {
			t.Fatalf("stderr = %q, want exactly one file:line:col: message [nodeterm] line", stderr.String())
		}
	})
	t.Run("unloadable", func(t *testing.T) {
		var stderr strings.Builder
		code := run(writeModule(t, clean), []string{"./nosuchdir"}, &stderr)
		if code != 1 || !strings.HasPrefix(stderr.String(), "cellqos-vet: ") {
			t.Fatalf("exit %d, stderr %q; want 1 and a cellqos-vet: error", code, stderr.String())
		}
	})
	t.Run("no flags", func(t *testing.T) {
		var stderr strings.Builder
		code := run(writeModule(t, clean), []string{"-json"}, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), "usage: cellqos-vet [packages]") {
			t.Fatalf("exit %d, stderr %q; want 1 and the usage line", code, stderr.String())
		}
	})
}
