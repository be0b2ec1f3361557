package predict

import (
	"bytes"
	"slices"
	"testing"

	"cellqos/internal/topology"
)

// FuzzPersistRoundTrip fuzzes the quadruplet-cache binary codec: any
// input ReadFrom accepts must re-serialize to a canonical form that is
// itself readable and byte-stable (decode → encode → decode → encode
// yields identical bytes), and everything else must be rejected with an
// error — never a panic, never a silently inconsistent estimator.
func FuzzPersistRoundTrip(f *testing.F) {
	encode := func(build func(e *Estimator)) []byte {
		e := stationary(50)
		build(e)
		var buf bytes.Buffer
		if _, err := e.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seed corpus: valid encodings of empty, single- and multi-pair
	// caches, plus corrupt variants (truncated, bit-flipped, zeroed).
	f.Add(encode(func(e *Estimator) {}))
	f.Add(encode(func(e *Estimator) {
		e.Record(Quadruplet{Event: 1, Prev: 1, Next: 2, Sojourn: 3.5})
	}))
	multi := encode(func(e *Estimator) {
		for i := 0; i < 40; i++ {
			e.Record(Quadruplet{
				Event:   float64(i),
				Prev:    topology.LocalIndex(i % 3),
				Next:    topology.LocalIndex(1 + i%3),
				Sojourn: float64(i%7) * 4,
			})
		}
	})
	f.Add(multi)
	f.Add(multi[:len(multi)/2])
	flipped := append([]byte(nil), multi...)
	flipped[9] ^= 0xff
	f.Add(flipped)
	f.Add(make([]byte, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		dst := stationary(50)
		if _, err := dst.ReadFrom(bytes.NewReader(data)); err != nil {
			return // graceful rejection is the correct outcome for corrupt input
		}
		var first bytes.Buffer
		if _, err := dst.WriteTo(&first); err != nil {
			t.Fatalf("WriteTo after accepting input: %v", err)
		}
		again := stationary(50)
		if _, err := again.ReadFrom(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("own serialization rejected on re-read: %v", err)
		}
		if again.Recorded() != dst.Recorded() {
			t.Fatalf("recorded count drifted across round-trip: %d -> %d", dst.Recorded(), again.Recorded())
		}
		var second bytes.Buffer
		if _, err := again.WriteTo(&second); err != nil {
			t.Fatalf("second WriteTo: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form not byte-stable: first %d bytes, second %d bytes", first.Len(), second.Len())
		}
	})
}

// FuzzRecordUpkeep fuzzes the in-place write path against its oracle:
// the input is an op stream for upkeepDriver (Record, EvictBefore,
// Reset, restore of a longer history, Merge, queries), and after every
// step each current pair index must equal a fresh rebuildPair of the
// same samples, bit for bit.
func FuzzRecordUpkeep(f *testing.F) {
	// Seeds: fill one pair past NQuad with duplicates; the same with a
	// restore and two merges in the middle; with an eviction, a query
	// and a Reset in the middle; records of the sojourn about to be
	// evicted and of the current maximum.
	fill := bytes.Repeat([]byte{1, 4}, 12)
	f.Add(uint8(0), false, fill)
	f.Add(uint8(1), true, append(append(slices.Clone(fill), 240, 250, 251), fill...))
	f.Add(uint8(2), true, append(append(slices.Clone(fill), 205, 3, 2, 200, 220, 230), fill...))
	f.Add(uint8(3), false, []byte{0, 0xC8, 1, 0xE8, 2, 0x28, 210, 1, 0, 0xC8})
	f.Fuzz(func(t *testing.T, nq uint8, w07 bool, ops []byte) {
		w0 := 1.0
		if w07 {
			w0 = 0.7
		}
		newUpkeepDriver(t, []int{1, 2, 7, 100}[nq%4], w0).run(ops)
	})
}
