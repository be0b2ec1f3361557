// Package allowstale keeps the //cellqos:allow escape hatch honest: an
// annotation that no longer suppresses any diagnostic is itself a
// finding, and so is an annotation missing the justification that
// DESIGN.md §12 makes mandatory. Three findings:
//
//   - stale: a name in the directive's comma-separated list suppressed
//     nothing any analyzer in the run reported. The violation it once
//     excused has been fixed (or the rule changed), and a leftover
//     annotation would silently re-arm if the violation came back —
//     delete it instead;
//   - unknown name: a name that is neither "all" nor an analyzer of the
//     run — a misspelling (`shardsfe`) or an analyzer since deleted. It
//     can never suppress anything, so skipping it would let it pass
//     forever while the author believes the site is covered;
//   - justification: the directive carries no free-form reason after
//     the name list. Every escape hatch must say why the rule does not
//     apply at that site.
//
// The analyzer itself is an empty shell: staleness only exists relative
// to the full set of analyzers in the same run, and only the driver
// (analysis.RunAnalyzers) holds the suppression ledger that records
// which directive entries fired. The driver audits the ledger after the
// other analyzers ran, but only when this analyzer — recognized by
// analysis.AllowStaleName — is in the set, so a fixture run of one
// analyzer never condemns annotations aimed at the other eight. Both
// real drivers (cmd/cellqos-vet, suite.TestRepoSweepClean) run the
// whole suite, so there "the run" is every analyzer that exists.
//
// allowstale findings are themselves suppressible: a directive that
// also names allowstale (or "all") covers its own line, for the rare
// annotation that must outlive the violation it documents.
package allowstale

import "cellqos/internal/analysis"

// Analyzer is the suite's registration handle for the escape-hatch
// audit. Run is a no-op — see the package comment: the real work
// happens in analysis.RunAnalyzers, keyed off this analyzer's presence.
var Analyzer = &analysis.Analyzer{
	Name: analysis.AllowStaleName,
	Doc: "flag //cellqos:allow annotations that suppress no diagnostic of any " +
		"analyzer in the run, name no analyzer of the run, or lack their " +
		"mandatory justification",
	Run: func(*analysis.Pass) (any, error) { return nil, nil },
}
