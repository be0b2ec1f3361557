package suite_test

import (
	"testing"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/suite"
)

// TestSuiteRegistry pins the analyzer set: nine analyzers, unique
// names, documented.
func TestSuiteRegistry(t *testing.T) {
	as := suite.Analyzers()
	if len(as) != 9 {
		t.Fatalf("suite has %d analyzers, want 9", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{
		"nodeterm", "maporderflow", "peervalue", "genepoch",
		"policycontract", "shardsafe", "crashorder", "unreached", "allowstale",
	} {
		if !seen[want] {
			t.Errorf("suite is missing %q", want)
		}
	}
}

// TestRepoSweepClean is the in-process twin of `make lint`: the whole
// module, test files included, must carry zero unsuppressed
// diagnostics from the nine analyzers. It keeps the invariant
// enforceable where only `go test ./...` runs, and it exercises the
// export-data loader end to end (so a loader regression cannot hide
// behind a green fixture suite).
//
// Skipped under -short: the loader shells out to `go list -export`,
// which compiles the module on a cold build cache.
func TestRepoSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide sweep builds the module; skipped under -short")
	}
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the loader is dropping module packages", len(pkgs))
	}
	findings, err := analysis.RunAnalyzers(pkgs, suite.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unsuppressed diagnostic: %s", f)
	}
}
