// Package service turns the deterministic admission engine into a
// long-running base-station process: a paced drive loop with periodic
// crash-safe estimator checkpointing, an overload gate for new calls,
// and a graceful drain-flush-exit lifecycle (DESIGN.md §14).
//
// The package sits between two time domains. Wall-clock time — always
// read through internal/clock, never directly — paces the loop and the
// checkpoint cadence; simulation time stamps every engine-visible
// event, drawn from a TimeSource (a deterministic StepSource in
// cmd/bsnet's serve mode and under test). Engine-visible bytes therefore
// never depend on wall-clock readings, which is what makes the
// crash-recovery tests exact.
package service

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Snapshot framing: a checkpoint file is one self-validating frame.
//
//	uint32  magic "CQSC"
//	uint16  version
//	uint32  CRC-32 (IEEE) over the body
//	body:
//	  float64 SimNow   — simulation clock at the cut
//	  uint64  Seq      — checkpoint sequence number
//	  uint32  payload length
//	  []byte  payload  — engine history streams (see Server)
//
// Decode rejects any frame whose total length disagrees with the
// declared payload length, so truncated and padded files fail before
// the checksum is even consulted; the CRC catches every single-bit
// flip (property-tested exhaustively in snapshot_test.go).
const (
	snapshotMagic     = 0x43515343 // "CQSC"
	snapshotVersion   = 1
	snapshotHeaderLen = 10 // magic + version + crc
	snapshotBodyFixed = 20 // SimNow + Seq + payload length
)

// Snapshot is one decoded checkpoint.
type Snapshot struct {
	// SimNow is the simulation clock at the moment of the cut; a
	// restored service resumes its clock at or after it.
	SimNow float64
	// Seq numbers checkpoints monotonically within a state directory.
	Seq uint64
	// Payload is the serialized engine history (opaque at this layer).
	Payload []byte
}

// Encode serializes the snapshot into one framed byte slice.
func (s *Snapshot) Encode() []byte {
	return s.appendFrame(make([]byte, 0, snapshotHeaderLen+snapshotBodyFixed+len(s.Payload)))
}

// appendFrame appends the snapshot's frame to dst; a Checkpointer
// reuses one frame buffer across saves through it.
func (s *Snapshot) appendFrame(dst []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, snapshotMagic)
	dst = binary.BigEndian.AppendUint16(dst, snapshotVersion)
	dst = binary.BigEndian.AppendUint32(dst, 0) // CRC, filled in below
	body := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(s.SimNow))
	dst = binary.BigEndian.AppendUint64(dst, s.Seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Payload)))
	dst = append(dst, s.Payload...)
	binary.BigEndian.PutUint32(dst[start+6:], crc32.ChecksumIEEE(dst[body:]))
	return dst
}

// DecodeSnapshot parses and validates one framed snapshot. The frame
// must be exact: wrong magic or version, any length disagreement,
// checksum mismatch, or a non-finite/negative SimNow all reject.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapshotHeaderLen+snapshotBodyFixed {
		return nil, fmt.Errorf("service: snapshot too short (%d bytes)", len(data))
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != snapshotMagic {
		return nil, fmt.Errorf("service: bad snapshot magic %#x", m)
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != snapshotVersion {
		return nil, fmt.Errorf("service: unsupported snapshot version %d", v)
	}
	want := binary.BigEndian.Uint32(data[6:])
	body := data[snapshotHeaderLen:]
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("service: snapshot checksum mismatch (%#x != %#x)", got, want)
	}
	plen := binary.BigEndian.Uint32(body[16:])
	if int64(plen) != int64(len(body)-snapshotBodyFixed) {
		return nil, fmt.Errorf("service: snapshot declares %d payload bytes, frame carries %d",
			plen, len(body)-snapshotBodyFixed)
	}
	simNow := math.Float64frombits(binary.BigEndian.Uint64(body[0:]))
	if math.IsNaN(simNow) || math.IsInf(simNow, 0) || simNow < 0 {
		return nil, fmt.Errorf("service: corrupt snapshot SimNow %v", simNow)
	}
	return &Snapshot{
		SimNow:  simNow,
		Seq:     binary.BigEndian.Uint64(body[8:]),
		Payload: append([]byte(nil), body[snapshotBodyFixed:]...),
	}, nil
}
