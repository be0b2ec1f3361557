package signaling

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary — truncated, corrupted, oversized —
// byte streams to the frame decoder, which sits directly behind every
// network read in the signaling plane (internal/faults deliberately
// manufactures such streams). Decode must never panic: it either
// rejects with an error or returns a frame that re-encodes to exactly
// the bytes it consumed (the codec has no non-canonical encodings, so
// accept ⇒ byte-stable round trip). The spare bytes after one frame
// must be left unread, or a slow TCP segment boundary would eat the
// next frame.
func FuzzDecodeFrame(f *testing.F) {
	encode := func(m Message) []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seed corpus: every request type, a response, an error frame, edge
	// floats, then malformed variants — empty, short, zero-type,
	// bit-flipped, and a frame with trailing garbage.
	f.Add(encode(Message{Type: MsgOutgoing, Seq: 1, From: 3, To: 7, Now: 12.5, Test: 4}))
	f.Add(encode(Message{Type: MsgSnapshot, Seq: 2, U1: 40, U2: 100, F1: 5.25}))
	f.Add(encode(Message{Type: MsgOutgoing.Response(), Seq: 7, F1: 3.5, U1: 80, U2: 100, F2: 5.25}))
	f.Add(encode(Message{Type: MsgRecompute, Seq: 3, Now: 99}))
	f.Add(encode(Message{Type: MsgMaxSojourn.Response(), Seq: 4, F1: math.Inf(1)}))
	f.Add(encode(Message{Type: MsgError, Seq: 5, U1: 2}))
	f.Add(encode(Message{Type: MsgOutgoing, F1: math.NaN(), Now: math.Inf(-1), F2: math.Inf(1)}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, frameSize))
	corrupted := encode(Message{Type: MsgSnapshot, Seq: 9})
	corrupted[17] ^= 0x40
	f.Add(corrupted)
	f.Add(append(encode(Message{Type: MsgOutgoing, Seq: 6}), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := Decode(r)
		if err != nil {
			return // rejection is fine; panics are what we hunt
		}
		if m.Type == 0 {
			t.Fatal("Decode accepted a zero-type frame")
		}
		if consumed := len(data) - r.Len(); consumed != frameSize {
			t.Fatalf("Decode consumed %d bytes, want exactly %d", consumed, frameSize)
		}
		var buf bytes.Buffer
		if err := Encode(&buf, m); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		// NaN payloads break naive equality; compare the wire bytes,
		// which is the property the protocol actually needs.
		if !bytes.Equal(buf.Bytes(), data[:frameSize]) {
			t.Fatalf("round trip drifted:\n in  %x\n out %x", data[:frameSize], buf.Bytes())
		}
	})
}
