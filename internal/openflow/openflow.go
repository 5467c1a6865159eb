// Package openflow implements the OpenFlow 1.0 subset used by the paper's
// controller appliance (§4.3): wire protocol (hello, features, packet-in,
// packet-out, flow-mod), a controller library with a learning-switch
// application, a switch-side flow table, and a cbench-style benchmark
// harness emulating switches that stream packet-in messages.
package openflow

import (
	"encoding/binary"
	"fmt"
)

// Version is OpenFlow 1.0.
const Version = 0x01

// Message types.
const (
	TypeHello           uint8 = 0
	TypeEchoRequest     uint8 = 2
	TypeEchoReply       uint8 = 3
	TypeFeaturesRequest uint8 = 5
	TypeFeaturesReply   uint8 = 6
	TypePacketIn        uint8 = 10
	TypePacketOut       uint8 = 13
	TypeFlowMod         uint8 = 14
)

// HeaderLen is the OpenFlow header size.
const HeaderLen = 8

// Header is the common message header.
type Header struct {
	Type   uint8
	Length int
	XID    uint32
}

// PacketIn is a switch-to-controller packet event.
type PacketIn struct {
	XID      uint32
	BufferID uint32
	InPort   uint16
	Data     []byte // frame prefix (dl_src at 6..12, dl_dst at 0..6)
}

// Match is the (simplified) OF 1.0 12-tuple; only the fields the learning
// switch uses are populated, the rest stay wildcarded.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DlSrc     [6]byte
	DlDst     [6]byte
}

// FlowMod installs a flow entry.
type FlowMod struct {
	XID      uint32
	Match    Match
	Command  uint16
	IdleTime uint16
	Priority uint16
	BufferID uint32
	OutPort  uint16
}

// PacketOut tells the switch to emit a (possibly buffered) packet.
type PacketOut struct {
	XID      uint32
	BufferID uint32
	InPort   uint16
	OutPort  uint16
	Data     []byte
}

// FeaturesReply describes a datapath.
type FeaturesReply struct {
	XID        uint32
	DatapathID uint64
	NBuffers   uint32
	NTables    uint8
	Ports      int
}

func putHeader(b []byte, t uint8, xid uint32) {
	b[0] = Version
	b[1] = t
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	binary.BigEndian.PutUint32(b[4:], xid)
}

// EncodeHello builds a HELLO message.
func EncodeHello(xid uint32) []byte {
	b := make([]byte, HeaderLen)
	putHeader(b, TypeHello, xid)
	return b
}

// EncodeFeaturesRequest builds a FEATURES_REQUEST.
func EncodeFeaturesRequest(xid uint32) []byte {
	b := make([]byte, HeaderLen)
	putHeader(b, TypeFeaturesRequest, xid)
	return b
}

// EncodeFeaturesReply builds a FEATURES_REPLY.
func EncodeFeaturesReply(f FeaturesReply) []byte {
	b := make([]byte, HeaderLen+24+f.Ports*48)
	putHeader(b, TypeFeaturesReply, f.XID)
	binary.BigEndian.PutUint64(b[8:], f.DatapathID)
	binary.BigEndian.PutUint32(b[16:], f.NBuffers)
	b[20] = f.NTables
	return b
}

// EncodePacketIn builds a PACKET_IN.
func EncodePacketIn(p PacketIn) []byte {
	b := make([]byte, HeaderLen+10+len(p.Data))
	putHeader(b, TypePacketIn, p.XID)
	binary.BigEndian.PutUint32(b[8:], p.BufferID)
	binary.BigEndian.PutUint16(b[12:], uint16(len(p.Data)))
	binary.BigEndian.PutUint16(b[14:], p.InPort)
	b[16] = 0 // reason: no match
	copy(b[18:], p.Data)
	return b
}

// matchLen is the OF 1.0 ofp_match size.
const matchLen = 40

func encodeMatch(b []byte, m Match) {
	binary.BigEndian.PutUint32(b, m.Wildcards)
	binary.BigEndian.PutUint16(b[4:], m.InPort)
	copy(b[6:], m.DlSrc[:])
	copy(b[12:], m.DlDst[:])
}

func decodeMatch(b []byte) Match {
	var m Match
	m.Wildcards = binary.BigEndian.Uint32(b)
	m.InPort = binary.BigEndian.Uint16(b[4:])
	copy(m.DlSrc[:], b[6:12])
	copy(m.DlDst[:], b[12:18])
	return m
}

// EncodeFlowMod builds a FLOW_MOD with a single output action.
func EncodeFlowMod(f FlowMod) []byte {
	b := make([]byte, HeaderLen+matchLen+24+8)
	putHeader(b, TypeFlowMod, f.XID)
	encodeMatch(b[8:], f.Match)
	off := 8 + matchLen
	// cookie (8) at off; command at off+8.
	binary.BigEndian.PutUint16(b[off+8:], f.Command)
	binary.BigEndian.PutUint16(b[off+10:], f.IdleTime)
	binary.BigEndian.PutUint16(b[off+14:], f.Priority)
	binary.BigEndian.PutUint32(b[off+16:], f.BufferID)
	binary.BigEndian.PutUint16(b[off+20:], f.OutPort)
	// Single OFPAT_OUTPUT action.
	act := b[off+24:]
	binary.BigEndian.PutUint16(act[0:], 0) // OFPAT_OUTPUT
	binary.BigEndian.PutUint16(act[2:], 8) // len
	binary.BigEndian.PutUint16(act[4:], f.OutPort)
	return b
}

// EncodePacketOut builds a PACKET_OUT with a single output action.
func EncodePacketOut(p PacketOut) []byte {
	b := make([]byte, HeaderLen+8+8+len(p.Data))
	putHeader(b, TypePacketOut, p.XID)
	binary.BigEndian.PutUint32(b[8:], p.BufferID)
	binary.BigEndian.PutUint16(b[12:], p.InPort)
	binary.BigEndian.PutUint16(b[14:], 8) // actions_len
	act := b[16:]
	binary.BigEndian.PutUint16(act[0:], 0)
	binary.BigEndian.PutUint16(act[2:], 8)
	binary.BigEndian.PutUint16(act[4:], p.OutPort)
	copy(b[24:], p.Data)
	return b
}

// ParseHeader decodes a header; b must hold at least HeaderLen bytes.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("openflow: short header")
	}
	if b[0] != Version {
		return Header{}, fmt.Errorf("openflow: unsupported version %d", b[0])
	}
	h := Header{Type: b[1], Length: int(binary.BigEndian.Uint16(b[2:])), XID: binary.BigEndian.Uint32(b[4:])}
	if h.Length < HeaderLen {
		return Header{}, fmt.Errorf("openflow: bad length %d", h.Length)
	}
	return h, nil
}

// ParsePacketIn decodes a PACKET_IN body (b is the full message).
func ParsePacketIn(b []byte) (PacketIn, error) {
	if len(b) < 18 {
		return PacketIn{}, fmt.Errorf("openflow: short packet_in")
	}
	return PacketIn{
		XID:      binary.BigEndian.Uint32(b[4:]),
		BufferID: binary.BigEndian.Uint32(b[8:]),
		InPort:   binary.BigEndian.Uint16(b[14:]),
		Data:     b[18:],
	}, nil
}

// ParseFlowMod decodes a FLOW_MOD.
func ParseFlowMod(b []byte) (FlowMod, error) {
	if len(b) < HeaderLen+matchLen+24 {
		return FlowMod{}, fmt.Errorf("openflow: short flow_mod")
	}
	var f FlowMod
	f.XID = binary.BigEndian.Uint32(b[4:])
	f.Match = decodeMatch(b[8:])
	off := 8 + matchLen
	f.Command = binary.BigEndian.Uint16(b[off+8:])
	f.IdleTime = binary.BigEndian.Uint16(b[off+10:])
	f.Priority = binary.BigEndian.Uint16(b[off+14:])
	f.BufferID = binary.BigEndian.Uint32(b[off+16:])
	f.OutPort = binary.BigEndian.Uint16(b[off+20:])
	if len(b) >= off+32 {
		f.OutPort = binary.BigEndian.Uint16(b[off+28:])
	}
	return f, nil
}

// Framer splits a byte stream into OpenFlow messages using the header
// length field.
type Framer struct {
	buf []byte
}

// Push appends stream bytes and returns any complete messages. A header
// that does not parse leaves no message boundary to resynchronise on, so
// the framer drops what it holds with the error.
func (f *Framer) Push(data []byte) ([][]byte, error) {
	f.buf = append(f.buf, data...)
	var out [][]byte
	for {
		if len(f.buf) < HeaderLen {
			return out, nil
		}
		h, err := ParseHeader(f.buf)
		if err != nil {
			f.buf = nil
			return out, err
		}
		if len(f.buf) < h.Length {
			return out, nil
		}
		msg := append([]byte(nil), f.buf[:h.Length]...)
		f.buf = f.buf[h.Length:]
		out = append(out, msg)
	}
}
