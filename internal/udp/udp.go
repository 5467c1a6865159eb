// Package udp implements UDP for the clean-slate stack (paper Table 1):
// header codec and a port demultiplexer with handler callbacks, in the
// iteratee style the paper describes — incoming datagrams are routed
// directly to the bound application function as zero-copy views.
package udp

import (
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Header is a parsed UDP header.
type Header struct {
	SrcPort, DstPort uint16
	Length           int
}

// Parse decodes the header; the returned payload is a zero-copy sub-view
// and v's reference transfers to it.
func Parse(v *cstruct.View) (Header, *cstruct.View, error) {
	if v.Len() < HeaderLen {
		return Header{}, nil, fmt.Errorf("udp: datagram too short")
	}
	h := Header{SrcPort: v.BE16(0), DstPort: v.BE16(2), Length: int(v.BE16(4))}
	if h.Length < HeaderLen || h.Length > v.Len() {
		return Header{}, nil, fmt.Errorf("udp: bad length %d", h.Length)
	}
	payload := v.Sub(HeaderLen, h.Length-HeaderLen)
	v.Release()
	return h, payload, nil
}

// Encode writes a UDP header into v for a payload of payloadLen bytes.
// The checksum is left zero (legal for IPv4; the IP header and ICMP/TCP
// carry their own).
func Encode(v *cstruct.View, src, dst uint16, payloadLen int) {
	v.PutBE16(0, src)
	v.PutBE16(2, dst)
	v.PutBE16(4, uint16(HeaderLen+payloadLen))
	v.PutBE16(6, 0)
}

// Handler receives datagrams for a bound port. The handler owns data and
// must Release it.
type Handler func(src ipv4.Addr, srcPort uint16, data *cstruct.View)

// Mux demultiplexes datagrams to bound ports.
type Mux struct {
	ports map[uint16]Handler
}

// NewMux returns an empty demultiplexer.
func NewMux() *Mux { return &Mux{ports: map[uint16]Handler{}} }

// Bind installs h for port; it errors if the port is taken.
func (m *Mux) Bind(port uint16, h Handler) error {
	if _, dup := m.ports[port]; dup {
		return fmt.Errorf("udp: port %d already bound", port)
	}
	m.ports[port] = h
	return nil
}

// Input routes one datagram. Unbound destinations are dropped (a full
// stack would send ICMP port-unreachable).
func (m *Mux) Input(src ipv4.Addr, h Header, data *cstruct.View) {
	fn, ok := m.ports[h.DstPort]
	if !ok {
		data.Release()
		return
	}
	fn(src, h.SrcPort, data)
}
