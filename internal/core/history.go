package core

import (
	"encoding/binary"
	"fmt"
	"io"
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
// The stream is a uint16 stream count — 1 for an adaptive engine, 0
// for one without an estimator — followed by that many predict
// persistence streams, each self-framed (magic + version) and
// self-delimiting. Integrity framing (checksums, atomic replacement) is
// the service layer's job: see internal/service.Snapshot.

// WriteHistory serializes the estimator under the engine lock, so a
// concurrently serving BS checkpoints a consistent cut. A non-adaptive
// engine (no estimator) writes a zero stream count.
func (e *Engine) WriteHistory(w io.Writer) (int64, error) {
	e.lock()
	defer e.unlock()
	// Like the estimator's stream, the count is appended into the
	// writer's own buffer when it offers one.
	var b []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = ab.AvailableBuffer()
	}
	if _, err := w.Write(binary.BigEndian.AppendUint16(b, uint16(e.streams()))); err != nil {
		return 0, err
	}
	if e.est == nil {
		return 2, nil
	}
	m, err := e.est.WriteTo(w)
	return 2 + m, err
}

// RestoreHistory loads a WriteHistory stream into the engine's
// estimator under the engine lock, replacing whatever it held: the
// estimator is Reset, then read back. The stream count must match the
// engine's — restoring an adaptive checkpoint into a non-adaptive
// engine (or vice versa) is a config mismatch, not recoverable data.
func (e *Engine) RestoreHistory(r io.Reader) (int64, error) {
	e.lock()
	defer e.unlock()
	var hdr [2]byte
	if m, err := io.ReadFull(r, hdr[:]); err != nil {
		return int64(m), err
	}
	if streams, want := binary.BigEndian.Uint16(hdr[:]), e.streams(); int(streams) != want {
		return 2, fmt.Errorf("core: history has %d estimator streams, engine expects %d", streams, want)
	}
	if e.est == nil {
		return 2, nil
	}
	e.est.Reset()
	m, err := e.est.ReadFrom(r)
	if err != nil {
		err = fmt.Errorf("core: restore estimator: %w", err)
	}
	return 2 + m, err
}

// streams is the history stream count: one per estimator.
func (e *Engine) streams() int {
	if e.est == nil {
		return 0
	}
	return 1
}

// HistoryLastEvent returns the estimator's newest event time (zero for
// an empty or non-adaptive engine). A restored service resumes its
// simulation clock at or after this instant so the estimator's
// event-order invariant holds across the restart.
func (e *Engine) HistoryLastEvent() float64 {
	e.lock()
	defer e.unlock()
	if e.est == nil {
		return 0
	}
	return e.est.LastEvent()
}
