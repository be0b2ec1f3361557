package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"cellqos/internal/predict"
)

// Engine history checkpointing: the learned hand-off quadruplets are
// the only engine state worth persisting across a base-station restart.
// Everything else reconverges — the connection table empties as calls
// tear down, the T_est controller is purely sequence-driven, and B_r is
// recomputed from the estimator on the next admission — but the
// estimator embodies hours of observed mobility, so losing it to a
// crash sets prediction quality back to cold-start (§3.1's cache is
// exactly what Eq. 4 is built from).
//
// The stream is the concatenation of one predict persistence stream per
// day class, prefixed with the class count; each inner stream is
// self-framed (magic + version) and self-delimiting. Integrity framing
// (checksums, atomic replacement) is the service layer's job: see
// internal/service.Snapshot.

// WriteHistory serializes every day class's estimator under the engine
// lock, so a concurrently serving BS checkpoints a consistent cut. A
// non-adaptive engine (no estimator) writes a zero class count.
func (e *Engine) WriteHistory(w io.Writer) (int64, error) {
	e.lock()
	defer e.unlock()
	classes := 0
	if e.patterns != nil {
		classes = e.patterns.Classes()
	}
	if err := binary.Write(w, binary.BigEndian, uint16(classes)); err != nil {
		return 0, err
	}
	n := int64(2)
	for c := 0; c < classes; c++ {
		m, err := e.patterns.ByClass(predict.DayClass(c)).WriteTo(w)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// RestoreHistory loads a WriteHistory stream into the engine's
// estimators under the engine lock, replacing whatever they held: each
// class is Reset, then read back. The class count must match the
// engine's — restoring an adaptive checkpoint into a non-adaptive
// engine (or vice versa) is a config mismatch, not recoverable data.
func (e *Engine) RestoreHistory(r io.Reader) (int64, error) {
	e.lock()
	defer e.unlock()
	var classes16 uint16
	if err := binary.Read(r, binary.BigEndian, &classes16); err != nil {
		return 0, err
	}
	n := int64(2)
	want := 0
	if e.patterns != nil {
		want = e.patterns.Classes()
	}
	if int(classes16) != want {
		return n, fmt.Errorf("core: history has %d day classes, engine expects %d", classes16, want)
	}
	for c := 0; c < want; c++ {
		est := e.patterns.ByClass(predict.DayClass(c))
		est.Reset()
		m, err := est.ReadFrom(r)
		n += m
		if err != nil {
			return n, fmt.Errorf("core: restore day class %d: %w", c, err)
		}
	}
	return n, nil
}

// HistoryLastEvent returns the newest estimator event time across all
// day classes (zero for an empty or non-adaptive engine). A restored
// service resumes its simulation clock at or after this instant so the
// estimators' event-order invariant holds across the restart.
func (e *Engine) HistoryLastEvent() float64 {
	e.lock()
	defer e.unlock()
	if e.patterns == nil {
		return 0
	}
	return e.patterns.LastEvent()
}
