package core

import (
	"bytes"
	"math"
	"testing"

	"cellqos/internal/predict"
	"cellqos/internal/topology"
)

func adaptiveEngine() *Engine {
	return NewEngine(Config{
		Capacity: 100, Degree: 2, Admission: MustPolicy("AC3"), PHDTarget: 0.01, TStart: 1,
		Estimation: predict.StationaryConfig(),
	})
}

// TestHistoryRoundTrip: WriteHistory → RestoreHistory reproduces the
// estimator's predictions and LastEvent exactly.
func TestHistoryRoundTrip(t *testing.T) {
	src := adaptiveEngine()
	for i := 0; i < 50; i++ {
		src.RecordDeparture(predict.Quadruplet{
			Event: float64(i), Prev: topology.LocalIndex(i % 2),
			Next: topology.LocalIndex(1 + i%2), Sojourn: 5 + float64(i%7),
		})
	}
	var buf bytes.Buffer
	if _, err := src.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}

	dst := adaptiveEngine()
	if _, err := dst.RestoreHistory(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.HistoryLastEvent(), src.HistoryLastEvent(); got != want {
		t.Fatalf("HistoryLastEvent = %v, want %v", got, want)
	}
	for _, prev := range []topology.LocalIndex{0, 1} {
		for _, ext := range []float64{0, 3, 8} {
			want := src.Estimator(100).HandOffProb(100, prev, ext, 4, 1)
			got := dst.Estimator(100).HandOffProb(100, prev, ext, 4, 1)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("restored ph(prev=%d, ext=%v) = %v, want %v", prev, ext, got, want)
			}
		}
	}
	// The restored engine keeps recording at or after LastEvent.
	dst.RecordDeparture(predict.Quadruplet{Event: dst.HistoryLastEvent(), Prev: 0, Next: 1, Sojourn: 2})
}

// TestHistoryRestoreReplacesStaleState: restore wipes whatever the
// estimators held (replace-on-restore).
func TestHistoryRestoreReplacesStaleState(t *testing.T) {
	src := adaptiveEngine()
	src.RecordDeparture(predict.Quadruplet{Event: 10, Prev: 0, Next: 1, Sojourn: 3})
	var buf bytes.Buffer
	src.WriteHistory(&buf)

	dst := adaptiveEngine()
	dst.RecordDeparture(predict.Quadruplet{Event: 99, Prev: 1, Next: 2, Sojourn: 7})
	if _, err := dst.RestoreHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if got := dst.HistoryLastEvent(); got != 10 {
		t.Fatalf("HistoryLastEvent = %v, want the checkpoint's 10", got)
	}
	if got := dst.Estimator(100).SurvivorWeight(100, 1, 0); got != 0 {
		t.Fatalf("pre-restore sample survived a replace: weight %v", got)
	}
}

// TestHistoryNonAdaptiveEngine: a policy without an estimator writes an
// empty (but valid) stream and restores it as a no-op.
func TestHistoryNonAdaptiveEngine(t *testing.T) {
	e := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	var buf bytes.Buffer
	if _, err := e.WriteHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 2 {
		t.Fatalf("non-adaptive stream is %d bytes, want the 2-byte class count", buf.Len())
	}
	if _, err := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")}).RestoreHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if got := e.HistoryLastEvent(); got != 0 {
		t.Fatalf("non-adaptive HistoryLastEvent = %v, want 0", got)
	}
}

// TestHistoryClassCountMismatch: an adaptive checkpoint cannot restore
// into a non-adaptive engine, and vice versa.
func TestHistoryClassCountMismatch(t *testing.T) {
	var adaptive bytes.Buffer
	adaptiveEngine().WriteHistory(&adaptive)
	plain := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	if _, err := plain.RestoreHistory(&adaptive); err == nil {
		t.Fatal("adaptive checkpoint accepted by non-adaptive engine")
	}
	var empty bytes.Buffer
	plain.WriteHistory(&empty)
	if _, err := adaptiveEngine().RestoreHistory(&empty); err == nil {
		t.Fatal("non-adaptive checkpoint accepted by adaptive engine")
	}
}

// TestHistoryRestoreRejectsTruncation: a cut-off stream errors rather
// than silently restoring a partial history.
func TestHistoryRestoreRejectsTruncation(t *testing.T) {
	src := adaptiveEngine()
	for i := 0; i < 20; i++ {
		src.RecordDeparture(predict.Quadruplet{Event: float64(i), Prev: 0, Next: 1, Sojourn: 3})
	}
	var buf bytes.Buffer
	src.WriteHistory(&buf)
	raw := buf.Bytes()
	for _, cut := range []int{1, 3, len(raw) / 2, len(raw) - 1} {
		if _, err := adaptiveEngine().RestoreHistory(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
