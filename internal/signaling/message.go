// Package signaling implements the inter-BS communication of the paper's
// §2 (Fig. 1): the queries that bandwidth reservation and admission
// control need to send between base stations — Eq. 5 outgoing-reservation
// evaluations, status snapshots, B_r recomputations and T_soj,max
// lookups — as a small framed binary protocol that runs over any
// net.Conn (TCP in production, net.Pipe in tests).
//
// Two deployment shapes are supported, matching the paper's Fig. 1:
//
//   - full mesh: every pair of neighboring BSs keeps a direct connection
//     and a BS answers its neighbors' queries itself;
//   - star: every BS connects only to the Mobile Switching Center, which
//     relays messages between BSs (and would, in the currently-deployed
//     systems the paper describes, run the admission tests itself).
//
// The RemotePeers adapter implements core.Peers on top of either shape,
// so the same Engine logic drives both the in-process simulation
// (internal/cellnet) and a distributed deployment.
package signaling

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MsgType identifies a protocol message. Responses set RespBit.
type MsgType uint8

// RespBit marks a message as a response to the request type it carries
// in its low bits.
const RespBit MsgType = 0x80

// Request types.
const (
	// MsgOutgoing asks the destination BS to evaluate Eq. 5 toward the
	// sender: the expected hand-off bandwidth into the sender's cell
	// within Test seconds. Response carries the value in F1 and, riding
	// along, the responder's snapshot — U1 (used), U2 (capacity), F2
	// (last B_r) — so an admission test that needs both asks once.
	MsgOutgoing MsgType = iota + 1
	// MsgSnapshot asks for (used bandwidth, capacity, last B_r) without
	// recomputation. Response: U1, U2, F1.
	MsgSnapshot
	// MsgRecompute asks the destination BS to recompute its own B_r.
	// Response: U1 (used), U2 (capacity), F1 (fresh B_r).
	MsgRecompute
	// MsgMaxSojourn asks for the destination's current T_soj,max.
	// Response: F1.
	MsgMaxSojourn
	// MsgError is a response indicating the request failed; F1 is unused
	// and the U1 field carries an error code.
	MsgError = 0x7f
)

// Request reports whether t is a request type.
func (t MsgType) Request() bool { return t&RespBit == 0 && t != MsgError }

// Response returns the response type for a request.
func (t MsgType) Response() MsgType { return t | RespBit }

// String names the type.
func (t MsgType) String() string {
	resp := ""
	b := t
	if t&RespBit != 0 {
		resp = "-resp"
		b = t &^ RespBit
	}
	switch b {
	case MsgOutgoing:
		return "outgoing" + resp
	case MsgSnapshot:
		return "snapshot" + resp
	case MsgRecompute:
		return "recompute" + resp
	case MsgMaxSojourn:
		return "max-sojourn" + resp
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("MsgType(%#x)", uint8(t))
	}
}

// NodeID addresses a protocol participant: cell IDs for BSs, MSCNode for
// the switching center.
type NodeID uint32

// MSCNode is the reserved address of the Mobile Switching Center.
const MSCNode NodeID = 0xFFFFFFFF

// Message is one protocol frame. The fixed field set keeps the codec
// trivial; unused fields are zero.
type Message struct {
	Type MsgType
	Seq  uint32 // request/response correlation, per (From) origin
	From NodeID
	To   NodeID
	Now  float64 // sender's current time (simulation or wall)
	Test float64 // T_est for MsgOutgoing
	F1   float64 // primary float result
	U1   uint32  // used bandwidth / error code
	U2   uint32  // capacity
	F2   float64 // last B_r riding on a MsgOutgoing response
}

// frameSize is the wire size of an encoded message. The hello carries
// no version, so every node of a deployment runs one build.
const frameSize = 1 + 4 + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 8

// Encode writes the message to w in fixed-size big-endian framing.
func Encode(w io.Writer, m Message) error {
	var buf [frameSize]byte
	buf[0] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[1:], m.Seq)
	binary.BigEndian.PutUint32(buf[5:], uint32(m.From))
	binary.BigEndian.PutUint32(buf[9:], uint32(m.To))
	binary.BigEndian.PutUint64(buf[13:], math.Float64bits(m.Now))
	binary.BigEndian.PutUint64(buf[21:], math.Float64bits(m.Test))
	binary.BigEndian.PutUint64(buf[29:], math.Float64bits(m.F1))
	binary.BigEndian.PutUint32(buf[37:], m.U1)
	binary.BigEndian.PutUint32(buf[41:], m.U2)
	binary.BigEndian.PutUint64(buf[45:], math.Float64bits(m.F2))
	_, err := w.Write(buf[:])
	return err
}

// Decode reads one message from r.
func Decode(r io.Reader) (Message, error) {
	var buf [frameSize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return Message{}, err
	}
	m := Message{
		Type: MsgType(buf[0]),
		Seq:  binary.BigEndian.Uint32(buf[1:]),
		From: NodeID(binary.BigEndian.Uint32(buf[5:])),
		To:   NodeID(binary.BigEndian.Uint32(buf[9:])),
		Now:  math.Float64frombits(binary.BigEndian.Uint64(buf[13:])),
		Test: math.Float64frombits(binary.BigEndian.Uint64(buf[21:])),
		F1:   math.Float64frombits(binary.BigEndian.Uint64(buf[29:])),
		U1:   binary.BigEndian.Uint32(buf[37:]),
		U2:   binary.BigEndian.Uint32(buf[41:]),
		F2:   math.Float64frombits(binary.BigEndian.Uint64(buf[45:])),
	}
	if m.Type == 0 {
		return Message{}, fmt.Errorf("signaling: zero message type")
	}
	return m, nil
}
