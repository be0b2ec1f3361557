// Package a is the deprecated-analyzer fixture: cross-package registry
// matches (the regression shape — internal/core/eq5cache_test.go
// called both wrappers until this PR deleted them) and the generic
// same-package "Deprecated:" doc mode.
package a

import "cellqos/internal/core"

// handOffArrival reproduces the pre-fix caller shape byte-for-byte
// modulo names: registering a hinted hand-off via the grace-period
// wrapper.
func handOffArrival(e *core.Engine, id core.ConnID, now float64) {
	e.AddConnectionWithHint(id, 3, 1, now, 2) // want `call to deprecated Engine\.AddConnectionWithHint: use AddConnection\(id, ConnSpec\{Min: bw, Prev: prev, Hint: hint\}, now\)`
}

func elasticAdmission(e *core.Engine, id core.ConnID, now float64) int {
	return e.AddElasticConnection(id, 2, 6, 0, now) // want `call to deprecated Engine\.AddElasticConnection`
}

// migrated is the post-fix form and must not be flagged.
func migrated(e *core.Engine, id core.ConnID, now float64) int {
	return e.AddConnection(id, core.ConnSpec{Min: 2, Max: 6}, now)
}

// oldHelper is deprecated the conventional way; same-package callers
// are flagged without a registry entry.
//
// Deprecated: use newHelper.
func oldHelper() int { return 1 }

func newHelper() int { return 2 }

func caller() int {
	return oldHelper() // want `call to deprecated oldHelper: use newHelper\.`
}

// mentionsDeprecatedMidSentence documents that something else is
// "Deprecated:" in passing; per the Go convention only a line starting
// with the marker deprecates, so calling this is fine.
func mentionsDeprecatedMidSentence() int { return 3 }

func fineCaller() int {
	return mentionsDeprecatedMidSentence() + newHelper()
}

// allowEscapeHatch exercises //cellqos:allow with a justification.
func allowEscapeHatch(e *core.Engine, id core.ConnID) {
	e.AddConnectionWithHint(id, 1, 1, 0, 2) //cellqos:allow deprecated fixture: migration staged in next commit
}
