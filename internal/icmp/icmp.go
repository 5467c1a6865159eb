// Package icmp implements ICMP echo (ping) and error messages for the
// clean-slate stack (paper Table 1, §4.1.3's flood-ping experiment).
package icmp

import (
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

// Message types.
const (
	TypeEchoReply   uint8 = 0
	TypeUnreachable uint8 = 3
	TypeEchoRequest uint8 = 8
)

// HeaderLen is the echo message header size.
const HeaderLen = 8

// Echo is a parsed echo request/reply.
type Echo struct {
	Type    uint8
	ID, Seq uint16
	Payload []byte
}

// ParseEcho decodes an echo message, verifying the checksum, and releases v.
func ParseEcho(v *cstruct.View) (Echo, error) {
	defer v.Release()
	if v.Len() < HeaderLen {
		return Echo{}, fmt.Errorf("icmp: message too short")
	}
	if ipv4.Checksum(v.Bytes()) != 0 {
		return Echo{}, fmt.Errorf("icmp: checksum mismatch")
	}
	e := Echo{Type: v.U8(0), ID: v.BE16(4), Seq: v.BE16(6)}
	e.Payload = append([]byte(nil), v.Slice(HeaderLen, v.Len()-HeaderLen)...)
	return e, nil
}

// EncodeEcho writes an echo message (header + payload) into v and returns
// the total length.
func EncodeEcho(v *cstruct.View, e Echo) int {
	v.PutU8(0, e.Type)
	v.PutU8(1, 0)
	v.PutBE16(2, 0)
	v.PutBE16(4, e.ID)
	v.PutBE16(6, e.Seq)
	v.PutBytes(HeaderLen, e.Payload)
	n := HeaderLen + len(e.Payload)
	v.PutBE16(2, ipv4.Checksum(v.Slice(0, n)))
	return n
}

// Handler answers echo requests and routes replies to a listener.
type Handler struct {
	// Output sends an echo message to dst.
	Output func(dst ipv4.Addr, e Echo)
	// OnReply, if set, observes echo replies (the ping client hook).
	OnReply func(from ipv4.Addr, e Echo)
}

// Input processes a received echo message from src.
func (h *Handler) Input(src ipv4.Addr, e Echo) {
	switch e.Type {
	case TypeEchoRequest:
		h.Output(src, Echo{Type: TypeEchoReply, ID: e.ID, Seq: e.Seq, Payload: e.Payload})
	case TypeEchoReply:
		if h.OnReply != nil {
			h.OnReply(src, e)
		}
	}
}
