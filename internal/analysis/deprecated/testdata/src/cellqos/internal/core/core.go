// Package core is the deprecated-analyzer fixture stub: it freezes the
// PR-4 wrappers exactly as they looked during their one-PR grace
// period, so the registry path stays covered after the real wrappers
// were deleted.
package core

// ConnID identifies a connection.
type ConnID uint64

// LocalIndex mirrors topology.LocalIndex.
type LocalIndex int

// ConnSpec mirrors the consolidated registration parameters.
type ConnSpec struct {
	Min, Max   int
	Prev, Hint LocalIndex
}

// Engine mirrors the per-cell engine.
type Engine struct{}

// AddConnection is the consolidated registration entry point.
func (e *Engine) AddConnection(id ConnID, spec ConnSpec, now float64) int { return spec.Min }

// AddConnectionWithHint registers a rigid connection with a known next
// cell.
//
// Deprecated: call AddConnection with ConnSpec{Min: bw, Prev: prev,
// Hint: hint}.
func (e *Engine) AddConnectionWithHint(id ConnID, bw int, prev LocalIndex, now float64, hint LocalIndex) {
	e.AddConnection(id, ConnSpec{Min: bw, Prev: prev, Hint: hint}, now)
}

// AddElasticConnection registers an adaptive-QoS connection.
//
// Deprecated: call AddConnection with ConnSpec{Min: min, Max: max,
// Prev: prev}.
func (e *Engine) AddElasticConnection(id ConnID, min, max int, prev LocalIndex, now float64) int {
	return e.AddConnection(id, ConnSpec{Min: min, Max: max, Prev: prev}, now)
}
