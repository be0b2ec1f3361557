package predict

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The persistence format is a wire format: a checkpoint written by one
// build must restore in the next. These histories exercise every shape
// the stream can take — pairs out of first-Record order, a prev with
// no group, a next gap inside a group, and a group whose only pair was
// emptied by eviction — and their bytes are pinned as the codec wrote
// them before it was rewritten without reflection.

// pinnedStationary builds a stationary (N_quad = 3) history.
func pinnedStationary() *Estimator {
	e := stationary(3)
	e.Record(Quadruplet{Event: 0.5, Prev: 3, Next: 1, Sojourn: 7})
	e.EvictBefore(0.75) // group 3 keeps its pair, with no samples
	e.Record(Quadruplet{Event: 1, Prev: 2, Next: 1, Sojourn: 4.5})
	e.Record(Quadruplet{Event: 2, Prev: 0, Next: 3, Sojourn: 1.0 / 3})
	e.Record(Quadruplet{Event: 3, Prev: 2, Next: 1, Sojourn: 12.125})
	e.Record(Quadruplet{Event: 4, Prev: 0, Next: 1, Sojourn: 0})
	e.Record(Quadruplet{Event: 5, Prev: 2, Next: 1, Sojourn: 2})
	e.Record(Quadruplet{Event: 6, Prev: 2, Next: 1, Sojourn: 9}) // evicts the first (2,1) sample
	return e
}

// pinnedDaily builds a DailyConfig history spanning two days.
func pinnedDaily() *Estimator {
	e := New(DailyConfig())
	e.Record(Quadruplet{Event: 50, Prev: 2, Next: 1, Sojourn: 8})
	e.EvictBefore(60) // group 2 keeps its pair, with no samples
	e.Record(Quadruplet{Event: 100, Prev: 1, Next: 2, Sojourn: 30})
	e.Record(Quadruplet{Event: 200, Prev: 0, Next: 1, Sojourn: 15.5})
	e.Record(Quadruplet{Event: 90000, Prev: 1, Next: 2, Sojourn: 20.75})
	return e
}

// Each stream reads: magic "CQHD", version 1, lastEvent, pair count,
// then per pair (prev, next) and its (event, sojourn) samples.
const (
	pinnedStationaryHex = "43514844" + "0001" + "4018000000000000" + "00000004" +
		"00000000" + "00000001" + "00000001" + "4010000000000000" + "0000000000000000" +
		"00000000" + "00000003" + "00000001" + "4000000000000000" + "3fd5555555555555" +
		"00000002" + "00000001" + "00000003" + "4008000000000000" + "4028400000000000" +
		"4014000000000000" + "4000000000000000" + "4018000000000000" + "4022000000000000" +
		"00000003" + "00000001" + "00000000"
	pinnedDailyHex = "43514844" + "0001" + "40f5f90000000000" + "00000003" +
		"00000000" + "00000001" + "00000001" + "4069000000000000" + "402f000000000000" +
		"00000001" + "00000002" + "00000002" + "4059000000000000" + "403e000000000000" +
		"40f5f90000000000" + "4034c00000000000" +
		"00000002" + "00000001" + "00000000"
)

// TestPersistFormatPinned holds WriteTo to the pinned bytes, and
// ReadFrom of those bytes to the same history.
func TestPersistFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Estimator
		want  string
	}{
		{"stationary", pinnedStationary, pinnedStationaryHex},
		{"daily", pinnedDaily, pinnedDailyHex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.build()
			var buf bytes.Buffer
			n, err := src.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
				t.Fatalf("WriteTo bytes\n got %s\nwant %s", got, tc.want)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			raw, _ := hex.DecodeString(tc.want)
			dst := New(src.Config())
			m, err := dst.ReadFrom(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if m != int64(len(raw)) {
				t.Fatalf("ReadFrom reported %d bytes, stream is %d", m, len(raw))
			}
			if dst.LastEvent() != src.LastEvent() {
				t.Fatalf("restored LastEvent %v, want %v", dst.LastEvent(), src.LastEvent())
			}
			var again bytes.Buffer
			if _, err := dst.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), raw) {
				t.Fatalf("restored history re-serializes differently:\n got %x\nwant %x", again.Bytes(), raw)
			}
		})
	}
}
