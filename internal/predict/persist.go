package predict

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

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

// WriteTo implements io.WriterTo: it writes the cached quadruplets.
func (e *Estimator) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v any) error {
		if err := binary.Write(bw, binary.BigEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(uint32(persistMagic)); err != nil {
		return n, err
	}
	if err := write(uint16(persistVersion)); err != nil {
		return n, err
	}
	if err := write(e.lastEvent); err != nil {
		return n, err
	}
	// Deterministic pair order: sort keys.
	keys := append([]pairKey(nil), e.allKeys...)
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].prev != keys[b].prev {
			return keys[a].prev < keys[b].prev
		}
		return keys[a].next < keys[b].next
	})
	if err := write(uint32(len(keys))); err != nil {
		return n, err
	}
	for _, k := range keys {
		p := e.pair(k.prev, k.next)
		if err := write(int32(k.prev)); err != nil {
			return n, err
		}
		if err := write(int32(k.next)); err != nil {
			return n, err
		}
		if err := write(uint32(len(p.raw))); err != nil {
			return n, err
		}
		for _, s := range p.raw {
			if err := write(s.event); err != nil {
				return n, err
			}
			if err := write(s.sojourn); err != nil {
				return n, err
			}
		}
	}
	return n, bw.Flush()
}

// ReadFrom implements io.ReaderFrom: it loads a previously serialized
// cache into this estimator, which must be freshly constructed (no
// quadruplets recorded yet): to replace the history of one that holds
// samples, Reset it first.
func (e *Estimator) ReadFrom(r io.Reader) (int64, error) {
	if e.recorded > 0 {
		return 0, fmt.Errorf("predict: ReadFrom into a non-empty estimator (Reset first to replace)")
	}
	// No read-ahead buffering: ReadFrom consumes exactly its own stream
	// so several streams can be concatenated (one per day class in
	// core.WriteHistory) and decoded back to back from one reader.
	var n int64
	read := func(v any) error {
		if err := binary.Read(r, binary.BigEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	var magic uint32
	if err := read(&magic); err != nil {
		return n, err
	}
	if magic != persistMagic {
		return n, fmt.Errorf("predict: bad magic %#x", magic)
	}
	var version uint16
	if err := read(&version); err != nil {
		return n, err
	}
	if version != persistVersion {
		return n, fmt.Errorf("predict: unsupported version %d", version)
	}
	var lastEvent float64
	if err := read(&lastEvent); err != nil {
		return n, err
	}
	if math.IsNaN(lastEvent) || lastEvent < 0 {
		return n, fmt.Errorf("predict: corrupt lastEvent %v", lastEvent)
	}
	var pairs uint32
	if err := read(&pairs); err != nil {
		return n, err
	}
	const maxPairs = 1 << 16
	if pairs > maxPairs {
		return n, fmt.Errorf("predict: implausible pair count %d", pairs)
	}
	for i := uint32(0); i < pairs; i++ {
		var prev32, next32 int32
		var count uint32
		if err := read(&prev32); err != nil {
			return n, err
		}
		if err := read(&next32); err != nil {
			return n, err
		}
		if err := read(&count); err != nil {
			return n, err
		}
		const maxSamples = 1 << 24
		if count > maxSamples {
			return n, fmt.Errorf("predict: implausible sample count %d", count)
		}
		prev, next := topology.LocalIndex(prev32), topology.LocalIndex(next32)
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
		for j := uint32(0); j < count; j++ {
			var ev, soj float64
			if err := read(&ev); err != nil {
				return n, err
			}
			if err := read(&soj); err != nil {
				return n, err
			}
			if math.IsNaN(ev) || math.IsNaN(soj) || soj < 0 || ev < lastSample {
				return n, fmt.Errorf("predict: corrupt sample (event %v, sojourn %v)", ev, soj)
			}
			lastSample = ev
			p.raw = append(p.raw, sample{event: ev, sojourn: soj})
			e.recorded++
		}
		p.dirty = true
	}
	if lastEvent > e.lastEvent {
		e.lastEvent = lastEvent
	}
	e.gen++ // restored history invalidates any generation-keyed caches
	return n, nil
}
