package core

import (
	"bytes"
	"encoding/hex"
	"math"
	"slices"
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
		t.Fatalf("non-adaptive stream is %d bytes, want the 2-byte stream count", buf.Len())
	}
	if _, err := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")}).RestoreHistory(&buf); err != nil {
		t.Fatal(err)
	}
	if got := e.HistoryLastEvent(); got != 0 {
		t.Fatalf("non-adaptive HistoryLastEvent = %v, want 0", got)
	}
}

// TestHistoryStreamCountMismatch: a history whose stream count is not
// the engine's is refused with an error naming both counts. Adaptive
// and non-adaptive checkpoints do not cross, and a two-stream history
// (the weekday/weekend layout of earlier builds) does not load.
func TestHistoryStreamCountMismatch(t *testing.T) {
	var adaptive, empty bytes.Buffer
	adaptiveEngine().WriteHistory(&adaptive)
	plain := NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")})
	plain.WriteHistory(&empty)
	// Two copies of one estimator stream behind a count of 2.
	est := predict.New(predict.StationaryConfig())
	est.Record(predict.Quadruplet{Event: 1, Prev: 0, Next: 1, Sojourn: 3})
	two := []byte{0, 2}
	for range 2 {
		var s bytes.Buffer
		if _, err := est.WriteTo(&s); err != nil {
			t.Fatal(err)
		}
		two = append(two, s.Bytes()...)
	}
	for _, tc := range []struct {
		name    string
		engine  *Engine
		history []byte
		want    string
	}{
		{"adaptive into non-adaptive", plain, adaptive.Bytes(), "core: history has 1 estimator streams, engine expects 0"},
		{"non-adaptive into adaptive", adaptiveEngine(), empty.Bytes(), "core: history has 0 estimator streams, engine expects 1"},
		{"two streams into adaptive", adaptiveEngine(), two, "core: history has 2 estimator streams, engine expects 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.engine.RestoreHistory(bytes.NewReader(tc.history))
			if err == nil || err.Error() != tc.want {
				t.Fatalf("RestoreHistory error = %v, want %q", err, tc.want)
			}
		})
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

// pinnedHistoryEngine is an adaptive engine with a small fixed history:
// pairs out of first-Record order and a group emptied by eviction.
func pinnedHistoryEngine() *Engine {
	e := adaptiveEngine()
	e.RecordDeparture(predict.Quadruplet{Event: 1, Prev: 2, Next: 1, Sojourn: 6.5})
	e.Estimator(0).EvictBefore(1.5) // group 2 keeps its pair, with no samples
	e.RecordDeparture(predict.Quadruplet{Event: 2, Prev: 1, Next: 2, Sojourn: 0.1})
	e.RecordDeparture(predict.Quadruplet{Event: 3, Prev: 0, Next: 1, Sojourn: 40})
	return e
}

// pinnedHistoryHex is WriteHistory of pinnedHistoryEngine as the
// reflection-based codec wrote it: the uint16 stream count, then one
// predict persistence stream.
const pinnedHistoryHex = "0001" + "43514844" + "0001" + "4008000000000000" + "00000003" +
	"00000000" + "00000001" + "00000001" + "4008000000000000" + "4044000000000000" +
	"00000001" + "00000002" + "00000001" + "4000000000000000" + "3fb999999999999a" +
	"00000002" + "00000001" + "00000000"

// TestHistoryFormatPinned: WriteHistory keeps its bytes, so a
// checkpoint written by an earlier build still restores.
func TestHistoryFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		e    *Engine
		want string
	}{
		{"adaptive", pinnedHistoryEngine(), pinnedHistoryHex},
		{"non-adaptive", NewEngine(Config{Capacity: 10, Degree: 1, Admission: MustPolicy("none")}), "0000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := tc.e.WriteHistory(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
				t.Fatalf("WriteHistory bytes\n got %s\nwant %s", got, tc.want)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteHistory reported %d bytes, wrote %d", n, buf.Len())
			}
		})
	}
	raw, _ := hex.DecodeString(pinnedHistoryHex)
	dst := adaptiveEngine()
	if m, err := dst.RestoreHistory(bytes.NewReader(raw)); err != nil || m != int64(len(raw)) {
		t.Fatalf("RestoreHistory = %d, %v; want %d, nil", m, err, len(raw))
	}
	if got := dst.HistoryLastEvent(); got != 3 {
		t.Fatalf("restored HistoryLastEvent = %v, want 3", got)
	}
}

// fencedReader serves data but fails the test on any Read that asks
// for bytes past fence: a decoder reading ahead of its own stream
// would steal the next cell's bytes from a concatenated checkpoint.
type fencedReader struct {
	t     *testing.T
	data  []byte
	off   int
	fence int
}

func (r *fencedReader) Read(p []byte) (int, error) {
	if r.off+len(p) > r.fence {
		r.t.Fatalf("read of %d bytes at offset %d crosses the stream end at %d", len(p), r.off, r.fence)
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestHistoryStreamsConcatenate: two WriteHistory streams written back
// to back decode back to back, each RestoreHistory consuming exactly
// its own bytes.
func TestHistoryStreamsConcatenate(t *testing.T) {
	first := pinnedHistoryEngine()
	second := adaptiveEngine()
	for i := 0; i < 30; i++ {
		second.RecordDeparture(predict.Quadruplet{
			Event: float64(i), Prev: topology.LocalIndex(i % 3),
			Next: topology.LocalIndex(1 + i%2), Sojourn: float64(i) / 7,
		})
	}
	var a, b bytes.Buffer
	if _, err := first.WriteHistory(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := second.WriteHistory(&b); err != nil {
		t.Fatal(err)
	}
	r := &fencedReader{t: t, data: append(slices.Clone(a.Bytes()), b.Bytes()...), fence: a.Len()}
	for i, want := range []*bytes.Buffer{&a, &b} {
		dst := adaptiveEngine()
		m, err := dst.RestoreHistory(r)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		if m != int64(want.Len()) || r.off != r.fence {
			t.Fatalf("stream %d: consumed %d bytes (offset %d), stream is %d bytes ending at %d", i, m, r.off, want.Len(), r.fence)
		}
		var again bytes.Buffer
		if _, err := dst.WriteHistory(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), want.Bytes()) {
			t.Fatalf("stream %d re-serializes differently", i)
		}
		r.fence = len(r.data)
	}
}
