// Package suite registers the full cellqos-vet analyzer set. It is the
// single source of truth consumed by cmd/cellqos-vet and by the
// repo-wide sweep test that keeps `make lint` green.
package suite

import (
	"cellqos/internal/analysis"
	"cellqos/internal/analysis/allowstale"
	"cellqos/internal/analysis/crashorder"
	"cellqos/internal/analysis/genepoch"
	"cellqos/internal/analysis/maporderflow"
	"cellqos/internal/analysis/nodeterm"
	"cellqos/internal/analysis/peervalue"
	"cellqos/internal/analysis/policycontract"
	"cellqos/internal/analysis/shardsafe"
	"cellqos/internal/analysis/unreached"
)

// Analyzers returns the nine cellqos invariant analyzers in stable
// order. allowstale runs last by convention — it audits the
// //cellqos:allow ledger the others populate, though the driver
// enforces that ordering itself regardless of position here.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		crashorder.Analyzer,
		genepoch.Analyzer,
		maporderflow.Analyzer,
		nodeterm.Analyzer,
		peervalue.Analyzer,
		policycontract.Analyzer,
		shardsafe.Analyzer,
		unreached.Analyzer,
		allowstale.Analyzer,
	}
}
