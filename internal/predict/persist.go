package predict

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"cellqos/internal/topology"
)

// Persistence lets a base station keep its learned hand-off history
// across restarts: WriteTo serializes the estimator's quadruplet cache
// in a small versioned binary format, ReadFrom restores it into a fresh
// estimator with the same configuration. Only the raw quadruplets are
// stored; indexes are rebuilt lazily on the next query.

// persistMagic identifies the format; persistVersion gates decoding.
const (
	persistMagic   = 0x43514844 // "CQHD"
	persistVersion = 1
)

// The stream, big-endian throughout: an 18-byte header (uint32 magic,
// uint16 version, float64 lastEvent, uint32 pair count), then per pair
// in (prev, next) order a 12-byte pair header (int32 prev, int32 next,
// uint32 sample count) and its samples, 16 bytes each (float64 event,
// float64 sojourn) in event order.
const (
	persistHeaderLen = 18
	persistPairLen   = 12
	persistSampleLen = 16
	// persistChunk is how many samples ReadFrom decodes per read; N_quad
	// (100 in the experiments) fits in one.
	persistChunk = 128
)

// WriteTo implements io.WriterTo: it writes the cached quadruplets in
// one Write. When w offers AvailableBuffer (bytes.Buffer, bufio.Writer)
// the stream is appended there — after a Grow, when w has one — so a
// writer with room for it costs no allocation.
func (e *Estimator) WriteTo(w io.Writer) (int64, error) {
	size := persistHeaderLen
	for _, p := range e.allPairs {
		size += persistPairLen + persistSampleLen*len(p.raw)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size)
	}
	var b []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		b = ab.AvailableBuffer()
	}
	if cap(b) < size {
		b = make([]byte, 0, size)
	}
	b = binary.BigEndian.AppendUint32(b, persistMagic)
	b = binary.BigEndian.AppendUint16(b, persistVersion)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.lastEvent))
	b = binary.BigEndian.AppendUint32(b, uint32(len(e.allPairs)))
	// The dense tables, walked by index, list the pairs in (prev, next)
	// order whatever order they were first recorded in.
	for prev, g := range e.prevs {
		if g == nil {
			continue
		}
		for next, p := range g.byNext {
			if p == nil {
				continue
			}
			b = binary.BigEndian.AppendUint32(b, uint32(prev))
			b = binary.BigEndian.AppendUint32(b, uint32(next))
			b = binary.BigEndian.AppendUint32(b, uint32(len(p.raw)))
			for _, s := range p.raw {
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.event))
				b = binary.BigEndian.AppendUint64(b, math.Float64bits(s.sojourn))
			}
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadFrom implements io.ReaderFrom: it loads a previously serialized
// cache into this estimator, which must be freshly constructed (no
// quadruplets recorded yet): to replace the history of one that holds
// samples, Reset it first.
func (e *Estimator) ReadFrom(r io.Reader) (int64, error) {
	if e.recorded > 0 {
		return 0, fmt.Errorf("predict: ReadFrom into a non-empty estimator (Reset first to replace)")
	}
	// No read-ahead: every read asks for bytes the stream has already
	// declared, so ReadFrom consumes exactly its own stream and several
	// streams can be concatenated (one per cell in a service checkpoint)
	// and decoded back to back from one reader.
	var buf [persistChunk * persistSampleLen]byte
	var n int64
	read := func(k int) ([]byte, error) {
		m, err := io.ReadFull(r, buf[:k])
		n += int64(m)
		return buf[:k], err
	}
	h, err := read(persistHeaderLen)
	if err != nil {
		return n, err
	}
	if magic := binary.BigEndian.Uint32(h[0:]); magic != persistMagic {
		return n, fmt.Errorf("predict: bad magic %#x", magic)
	}
	if version := binary.BigEndian.Uint16(h[4:]); version != persistVersion {
		return n, fmt.Errorf("predict: unsupported version %d", version)
	}
	lastEvent := math.Float64frombits(binary.BigEndian.Uint64(h[6:]))
	if math.IsNaN(lastEvent) || lastEvent < 0 {
		return n, fmt.Errorf("predict: corrupt lastEvent %v", lastEvent)
	}
	pairs := binary.BigEndian.Uint32(h[14:])
	const maxPairs = 1 << 16
	if pairs > maxPairs {
		return n, fmt.Errorf("predict: implausible pair count %d", pairs)
	}
	for i := uint32(0); i < pairs; i++ {
		ph, err := read(persistPairLen)
		if err != nil {
			return n, err
		}
		prev := topology.LocalIndex(int32(binary.BigEndian.Uint32(ph[0:])))
		next := topology.LocalIndex(int32(binary.BigEndian.Uint32(ph[4:])))
		count := binary.BigEndian.Uint32(ph[8:])
		const maxSamples = 1 << 24
		if count > maxSamples {
			return n, fmt.Errorf("predict: implausible sample count %d", count)
		}
		if prev < 0 || next < 0 || prev >= maxLocalIndex || next >= maxLocalIndex {
			// Local indices are cell-degree-sized; anything outside the
			// dense-table bound is corrupt input, not a real topology.
			return n, fmt.Errorf("predict: local index out of range in pair (%d,%d)", prev, next)
		}
		if e.pair(prev, next) != nil {
			// WriteTo emits each pair exactly once; a duplicate means the
			// input is corrupt (and concatenating the sample lists could
			// break their event ordering, making the result unserializable).
			return n, fmt.Errorf("predict: duplicate pair (%d,%d)", prev, next)
		}
		p := e.addPair(prev, next)
		lastSample := math.Inf(-1)
		for left := int(count); left > 0; {
			k := min(left, persistChunk)
			chunk, err := read(k * persistSampleLen)
			if err != nil {
				return n, err
			}
			left -= k
			// Grow by what was read, never by the declared count: a
			// corrupt count cannot make ReadFrom allocate.
			p.raw = slices.Grow(p.raw, k)
			for j := 0; j < k; j++ {
				ev := math.Float64frombits(binary.BigEndian.Uint64(chunk[j*persistSampleLen:]))
				soj := math.Float64frombits(binary.BigEndian.Uint64(chunk[j*persistSampleLen+8:]))
				if math.IsNaN(ev) || math.IsNaN(soj) || soj < 0 || ev < lastSample {
					return n, fmt.Errorf("predict: corrupt sample (event %v, sojourn %v)", ev, soj)
				}
				lastSample = ev
				p.raw = append(p.raw, sample{event: ev, sojourn: soj})
				e.recorded++
			}
		}
		p.dirty = true
	}
	if lastEvent > e.lastEvent {
		e.lastEvent = lastEvent
	}
	e.gen++ // restored history invalidates any generation-keyed caches
	return n, nil
}
