// Command cellqos-vet sweeps packages with the repo's custom
// go/analysis suite (internal/analysis/suite): nodeterm, maporderflow,
// peervalue, genepoch, policycontract, shardsafe, crashorder, unreached
// and allowstale — the machine-checked forms of the determinism,
// degradation, policy-contract, crash-ordering and production-surface
// invariants DESIGN.md §12 documents.
//
//	cellqos-vet [packages]
//
// The patterns (default ./...) are resolved in the current directory
// with `go list -export` (internal/analysis.Load), test variants
// included, and every matched package is analyzed in one process. That
// is the only way to drive the suite from the command line — `make
// lint`, CI and `cd bench && go run cellqos/cmd/cellqos-vet ./...` all
// use it — and there are no flags. Findings print vet-style on stderr,
// one `file:line:col: message [analyzer]` line each.
//
// Exit status: 0 clean, 1 operational error, 2 diagnostics reported.
// The only way to accept a finding is a justified //cellqos:allow
// annotation at the site (see DESIGN.md §12 for the annotation policy),
// which the allowstale analyzer audits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cellqos/internal/analysis"
	"cellqos/internal/analysis/suite"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stderr))
}

// run sweeps the packages args name below dir and prints the findings
// to stderr.
func run(dir string, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("cellqos-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, "usage: cellqos-vet [packages]") }
	if err := fs.Parse(args); err != nil {
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cellqos-vet: %v\n", err)
		return 1
	}
	findings, err := analysis.RunAnalyzers(pkgs, suite.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "cellqos-vet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(stderr, "%s\n", f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
