// Package tcp is the clean-slate TCP implementation of the unikernel stack
// (paper §4.1.3): full connection lifecycle, retransmission with
// Jacobson/Karn RTT estimation, fast retransmit and recovery, New Reno
// congestion control, and window scaling. It is written as an event-driven
// state machine over the lwt scheduler, with promise-based read/write for
// applications.
package tcp

import (
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

// Header flags.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// HeaderLen is the size of a TCP header without options.
const HeaderLen = 20

// Segment is a parsed or to-be-sent TCP segment.
type Segment struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	// Options (present on SYN segments).
	MSS      uint16
	WndScale int // -1 if absent
	Payload  []byte
	// Span is causal-tracing metadata: the trace id of the request this
	// segment belongs to (0 = untraced). It is never encoded into or parsed
	// from wire bytes — the network layer carries it on frame descriptors —
	// so traced and untraced runs produce identical packets.
	Span uint64
	// view, when non-nil, is a retained sub-view of the receive page that
	// Payload aliases (zero-copy RX, §3.4.1). Whoever consumes the segment
	// must release it exactly once; see releaseView.
	view *cstruct.View
}

// releaseView drops the payload's page reference (no-op for segments whose
// payload is a plain heap slice, e.g. locally built or directly injected).
func (s *Segment) releaseView() {
	if s.view != nil {
		s.view.Release()
		s.view = nil
	}
}

func (s Segment) flagString() string {
	out := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagSYN, "S"}, {FlagACK, "A"}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}} {
		if s.Flags&f.bit != 0 {
			out += f.name
		}
	}
	return out
}

func (s Segment) String() string {
	return fmt.Sprintf("tcp %d->%d [%s] seq=%d ack=%d win=%d len=%d",
		s.SrcPort, s.DstPort, s.flagString(), s.Seq, s.Ack, s.Window, len(s.Payload))
}

// optionsLen returns the encoded option bytes needed for s.
func (s Segment) optionsLen() int {
	n := 0
	if s.Flags&FlagSYN != 0 {
		if s.MSS != 0 {
			n += 4
		}
		if s.WndScale >= 0 {
			n += 3
		}
	}
	return (n + 3) &^ 3 // pad to 4-byte boundary
}

// WireLen returns exactly the number of bytes Encode writes for s: header,
// options and payload. A caller that reserves this much builds the segment
// in place.
func (s Segment) WireLen() int { return HeaderLen + s.optionsLen() + len(s.Payload) }

// Encode writes the segment (header, options, payload) into v and returns
// the total length, computing the checksum over the IPv4 pseudo-header.
func Encode(v *cstruct.View, src, dst ipv4.Addr, s Segment) int {
	total := s.WireLen()
	dataOff := total - len(s.Payload)
	v.PutBE16(0, s.SrcPort)
	v.PutBE16(2, s.DstPort)
	v.PutBE32(4, s.Seq)
	v.PutBE32(8, s.Ack)
	v.PutU8(12, uint8(dataOff/4)<<4)
	v.PutU8(13, s.Flags)
	v.PutBE16(14, s.Window)
	v.PutBE16(16, 0) // checksum placeholder
	v.PutBE16(18, 0) // urgent
	// Options.
	off := HeaderLen
	if s.Flags&FlagSYN != 0 {
		if s.MSS != 0 {
			v.PutU8(off, 2)
			v.PutU8(off+1, 4)
			v.PutBE16(off+2, s.MSS)
			off += 4
		}
		if s.WndScale >= 0 {
			v.PutU8(off, 3)
			v.PutU8(off+1, 3)
			v.PutU8(off+2, uint8(s.WndScale))
			off += 3
		}
	}
	for off < dataOff {
		v.PutU8(off, 1) // NOP padding
		off++
	}
	v.PutBytes(dataOff, s.Payload)
	sum := ipv4.PseudoHeaderChecksum(src, dst, ipv4.ProtoTCP, total)
	v.PutBE16(16, ipv4.FinishChecksum(sum, v.Slice(0, total)))
	return total
}

// Parse decodes a segment, verifying the checksum, and releases v. The
// payload is NOT copied: it stays a sub-view of the receive page (held via
// Segment.view), and the reassembly path keeps that view retained until the
// application has read the bytes, which Conn.Read lends it in place — only
// the out-of-order map copies.
func Parse(src, dst ipv4.Addr, v *cstruct.View) (Segment, error) {
	defer v.Release()
	if v.Len() < HeaderLen {
		return Segment{}, fmt.Errorf("tcp: segment too short")
	}
	sum := ipv4.PseudoHeaderChecksum(src, dst, ipv4.ProtoTCP, v.Len())
	if ipv4.FinishChecksum(sum, v.Bytes()) != 0 {
		return Segment{}, fmt.Errorf("tcp: checksum mismatch")
	}
	var s Segment
	s.SrcPort = v.BE16(0)
	s.DstPort = v.BE16(2)
	s.Seq = v.BE32(4)
	s.Ack = v.BE32(8)
	dataOff := int(v.U8(12)>>4) * 4
	if dataOff < HeaderLen || dataOff > v.Len() {
		return Segment{}, fmt.Errorf("tcp: bad data offset %d", dataOff)
	}
	s.Flags = v.U8(13)
	s.Window = v.BE16(14)
	s.WndScale = -1
	// Options.
	off := HeaderLen
	for off < dataOff {
		kind := v.U8(off)
		switch kind {
		case 0: // end of options
			off = dataOff
		case 1: // NOP
			off++
		default:
			if off+1 >= dataOff {
				return Segment{}, fmt.Errorf("tcp: truncated option")
			}
			l := int(v.U8(off + 1))
			if l < 2 || off+l > dataOff {
				return Segment{}, fmt.Errorf("tcp: bad option length")
			}
			switch kind {
			case 2:
				if l == 4 {
					s.MSS = v.BE16(off + 2)
				}
			case 3:
				if l == 3 {
					s.WndScale = int(v.U8(off + 2))
				}
			}
			off += l
		}
	}
	if n := v.Len() - dataOff; n > 0 {
		s.view = v.Sub(dataOff, n)
		s.Payload = s.view.Bytes()
	}
	return s, nil
}
