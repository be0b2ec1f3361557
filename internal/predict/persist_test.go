package predict

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cellqos/internal/topology"
)

func TestPersistRoundTrip(t *testing.T) {
	src := stationary(100)
	r := rand.New(rand.NewPCG(5, 0))
	for i := 0; i < 300; i++ {
		src.Record(Quadruplet{
			Event:   float64(i),
			Prev:    topology.LocalIndex(r.IntN(3)),
			Next:    topology.LocalIndex(1 + r.IntN(3)),
			Sojourn: r.Float64() * 80,
		})
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := stationary(100)
	if _, err := dst.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a grid of queries.
	for _, prev := range []topology.LocalIndex{0, 1, 2} {
		for _, next := range []topology.LocalIndex{1, 2, 3} {
			for _, ext := range []float64{0, 10, 40, 100} {
				want := src.HandOffProb(400, prev, ext, 25, next)
				got := dst.HandOffProb(400, prev, ext, 25, next)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("restored ph(%d,%d,%v) = %v, want %v", prev, next, ext, got, want)
				}
			}
		}
	}
	if dst.MaxSojourn(400) != src.MaxSojourn(400) {
		t.Fatal("MaxSojourn differs after restore")
	}
	// The restored estimator accepts further recording in time order.
	dst.Record(Quadruplet{Event: 500, Prev: 1, Next: 2, Sojourn: 5})
}

func TestPersistEmptyEstimator(t *testing.T) {
	var buf bytes.Buffer
	if _, err := stationary(10).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dst := stationary(10)
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Recorded() != 0 {
		t.Fatalf("empty restore recorded %d", dst.Recorded())
	}
}

func TestPersistRejectsNonEmptyTarget(t *testing.T) {
	src := stationary(10)
	src.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 3})
	var buf bytes.Buffer
	src.WriteTo(&buf)
	dst := stationary(10)
	dst.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 3})
	if _, err := dst.ReadFrom(&buf); err == nil {
		t.Fatal("ReadFrom into non-empty estimator succeeded")
	}
}

// TestResetThenReadFrom pins the replace-on-restore mode: Reset
// returns the estimator to its fresh state (advancing the generation),
// after which ReadFrom accepts a serialized history.
func TestResetThenReadFrom(t *testing.T) {
	src := stationary(10)
	for i := 0; i < 5; i++ {
		src.Record(Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 3 + float64(i)})
	}
	var buf bytes.Buffer
	src.WriteTo(&buf)

	dst := stationary(10)
	dst.Record(Quadruplet{Event: 99, Prev: 2, Next: 1, Sojourn: 7})
	genBefore := dst.Generation()
	dst.Reset()
	if dst.Generation() <= genBefore {
		t.Fatal("Reset did not advance the generation")
	}
	if dst.Recorded() != 0 || dst.Evicted() != 0 || dst.LastEvent() != 0 {
		t.Fatalf("Reset left state: recorded=%d evicted=%d last=%v",
			dst.Recorded(), dst.Evicted(), dst.LastEvent())
	}
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatalf("ReadFrom after Reset: %v", err)
	}
	if dst.Recorded() != 5 || dst.LastEvent() != 4 {
		t.Fatalf("restored recorded=%d last=%v, want 5/4", dst.Recorded(), dst.LastEvent())
	}
	// The pre-Reset pair (prev 2) must be gone, the restored one present.
	if got := dst.SurvivorWeight(100, 2, 0); got != 0 {
		t.Fatalf("pre-Reset history survived: SurvivorWeight = %v", got)
	}
	if got := dst.SurvivorWeight(100, 1, 0); got != 5 {
		t.Fatalf("restored SurvivorWeight = %v, want 5", got)
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	dst := stationary(10)
	if _, err := dst.ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	// Wrong magic.
	var buf bytes.Buffer
	buf.Write(make([]byte, 64))
	if _, err := stationary(10).ReadFrom(&buf); err == nil {
		t.Fatal("zero magic accepted")
	}
}

func TestPersistTruncated(t *testing.T) {
	src := stationary(10)
	for i := 0; i < 20; i++ {
		src.Record(Quadruplet{Event: float64(i), Prev: 1, Next: 2, Sojourn: 3})
	}
	var buf bytes.Buffer
	src.WriteTo(&buf)
	raw := buf.Bytes()
	for _, cut := range []int{7, 15, len(raw) / 2, len(raw) - 1} {
		dst := stationary(10)
		if _, err := dst.ReadFrom(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// Property: round-trip preserves all raw samples for random histories.
func TestPropertyPersistRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 9))
		src := stationary(50)
		n := r.IntN(200)
		for i := 0; i < n; i++ {
			src.Record(Quadruplet{
				Event:   float64(i),
				Prev:    topology.LocalIndex(r.IntN(2)),
				Next:    topology.LocalIndex(1 + r.IntN(2)),
				Sojourn: r.Float64() * 50,
			})
		}
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			return false
		}
		dst := stationary(50)
		if _, err := dst.ReadFrom(&buf); err != nil {
			return false
		}
		if dst.Recorded() != src.Recorded()-src.Evicted() {
			return false
		}
		for q := 0; q < 10; q++ {
			prev := topology.LocalIndex(r.IntN(2))
			next := topology.LocalIndex(1 + r.IntN(2))
			ext := r.Float64() * 60
			if math.Abs(src.HandOffProb(1000, prev, ext, 20, next)-dst.HandOffProb(1000, prev, ext, 20, next)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// fullEstimator is a serve-mesh cell's history: degree 2, every
// (prev, next) pair holding N_quad = 100 samples.
func fullEstimator() *Estimator {
	e := New(StationaryConfig())
	r := rand.New(rand.NewPCG(6, 6))
	ev := 0.0
	for prev := 0; prev <= 2; prev++ {
		for next := 1; next <= 2; next++ {
			for k := 0; k < 100; k++ {
				e.Record(Quadruplet{Event: ev, Prev: topology.LocalIndex(prev), Next: topology.LocalIndex(next), Sojourn: 20 + r.Float64()*300})
				ev += 0.01
			}
		}
	}
	return e
}

// BenchmarkWriteTo serializes a full cell history into a reused
// bytes.Buffer, the way a service checkpoint does: the stream is
// appended in the buffer's own storage, so BENCH_admission.json pins
// it at 0 allocs/op.
func BenchmarkWriteTo(b *testing.B) {
	e := fullEstimator()
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := e.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrom restores a full cell history into a Reset
// estimator: the read buffer plus the pair tables and sample slices
// the restored history needs, which BENCH_admission.json pins.
func BenchmarkReadFrom(b *testing.B) {
	var buf bytes.Buffer
	if _, err := fullEstimator().WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	e := New(StationaryConfig())
	r := bytes.NewReader(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		r.Reset(raw)
		if _, err := e.ReadFrom(r); err != nil {
			b.Fatal(err)
		}
	}
}
