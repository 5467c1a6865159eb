// Package dhcp implements a DHCP client state machine and a minimal server
// (paper Table 1): the client is the "dynamic configuration directive" of
// §2.3.1 — an appliance that must remain clonable uses DHCP instead of a
// compiled-in static address.
package dhcp

import (
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
)

// Ports.
const (
	ServerPort = 67
	ClientPort = 68
)

// Message types.
const (
	Discover uint8 = 1
	Offer    uint8 = 2
	Request  uint8 = 3
	Ack      uint8 = 5
	Nak      uint8 = 6
)

// fixedLen is the fixed BOOTP preamble we encode (op..chaddr + magic).
const fixedLen = 240

var magic = [4]byte{99, 130, 83, 99}

// Message is a simplified DHCP message.
type Message struct {
	Type     uint8
	XID      uint32
	ClientHW ethernet.MAC
	YourIP   ipv4.Addr // offered/assigned address
	ServerIP ipv4.Addr
	// Options carried both ways.
	Netmask ipv4.Addr
	Gateway ipv4.Addr
	ReqIP   ipv4.Addr // requested address (client Request)
}

// Encode writes the message into v and returns its length.
func Encode(v *cstruct.View, m Message) int {
	v.Fill(0, fixedLen, 0)
	op := uint8(1) // BOOTREQUEST
	if m.Type == Offer || m.Type == Ack || m.Type == Nak {
		op = 2
	}
	v.PutU8(0, op)
	v.PutU8(1, 1) // htype ethernet
	v.PutU8(2, 6) // hlen
	v.PutBE32(4, m.XID)
	v.PutBE32(16, uint32(m.YourIP))
	v.PutBE32(20, uint32(m.ServerIP))
	v.PutBytes(28, m.ClientHW[:])
	v.PutBytes(236, magic[:])
	off := fixedLen
	put := func(code, l uint8, val uint32) {
		v.PutU8(off, code)
		v.PutU8(off+1, l)
		if l == 1 {
			v.PutU8(off+2, uint8(val))
		} else {
			v.PutBE32(off+2, val)
		}
		off += 2 + int(l)
	}
	put(53, 1, uint32(m.Type))
	if m.Netmask != 0 {
		put(1, 4, uint32(m.Netmask))
	}
	if m.Gateway != 0 {
		put(3, 4, uint32(m.Gateway))
	}
	if m.ReqIP != 0 {
		put(50, 4, uint32(m.ReqIP))
	}
	v.PutU8(off, 255) // end
	off++
	return off
}

// Parse decodes a DHCP message and releases v.
func Parse(v *cstruct.View) (Message, error) {
	defer v.Release()
	if v.Len() < fixedLen+3 {
		return Message{}, fmt.Errorf("dhcp: message too short (%d)", v.Len())
	}
	if [4]byte(v.Slice(236, 4)) != magic {
		return Message{}, fmt.Errorf("dhcp: bad magic cookie")
	}
	var m Message
	m.XID = v.BE32(4)
	m.YourIP = ipv4.Addr(v.BE32(16))
	m.ServerIP = ipv4.Addr(v.BE32(20))
	copy(m.ClientHW[:], v.Slice(28, 6))
	off := fixedLen
	for off < v.Len() {
		code := v.U8(off)
		if code == 255 {
			break
		}
		if code == 0 {
			off++
			continue
		}
		if off+1 >= v.Len() {
			return Message{}, fmt.Errorf("dhcp: truncated option")
		}
		l := int(v.U8(off + 1))
		if off+2+l > v.Len() {
			return Message{}, fmt.Errorf("dhcp: option overruns message")
		}
		// RFC 2132 fixes the lengths of the options read here: the message
		// type is one octet, an address four (the router option is a list of
		// them, the first one used). Anything else would read a neighbouring
		// option's bytes, or past the message.
		switch {
		case code == 53 && l != 1,
			(code == 1 || code == 50) && l != 4,
			code == 3 && (l == 0 || l%4 != 0):
			return Message{}, fmt.Errorf("dhcp: option %d with length %d", code, l)
		}
		switch code {
		case 53:
			m.Type = v.U8(off + 2)
		case 1:
			m.Netmask = ipv4.Addr(v.BE32(off + 2))
		case 3:
			m.Gateway = ipv4.Addr(v.BE32(off + 2))
		case 50:
			m.ReqIP = ipv4.Addr(v.BE32(off + 2))
		}
		off += 2 + l
	}
	if m.Type == 0 {
		return Message{}, fmt.Errorf("dhcp: missing message type")
	}
	return m, nil
}

// Lease is a completed client configuration.
type Lease struct {
	IP      ipv4.Addr
	Netmask ipv4.Addr
	Gateway ipv4.Addr
}

// Client is the discover/offer/request/ack state machine. The transport
// (UDP broadcast send) is injected so it runs over the unikernel stack.
type Client struct {
	HW  ethernet.MAC
	XID uint32
	// Send broadcasts a client message.
	Send func(m Message)
	// OnLease is invoked once the ACK arrives.
	OnLease func(Lease)

	state uint8 // last message type we sent
	offer Message
	done  bool
}

// Start broadcasts DISCOVER.
func (c *Client) Start() {
	c.state = Discover
	c.Send(Message{Type: Discover, XID: c.XID, ClientHW: c.HW})
}

// Input feeds a server message to the client.
func (c *Client) Input(m Message) {
	if m.XID != c.XID || c.done {
		return
	}
	switch {
	case m.Type == Offer && c.state == Discover:
		c.offer = m
		c.state = Request
		c.Send(Message{Type: Request, XID: c.XID, ClientHW: c.HW, ReqIP: m.YourIP, ServerIP: m.ServerIP})
	case m.Type == Ack && c.state == Request:
		c.done = true
		if c.OnLease != nil {
			c.OnLease(Lease{IP: m.YourIP, Netmask: m.Netmask, Gateway: m.Gateway})
		}
	case m.Type == Nak:
		c.state = Discover
		c.Send(Message{Type: Discover, XID: c.XID, ClientHW: c.HW})
	}
}

// Server is a minimal address-pool DHCP server.
type Server struct {
	ServerIP ipv4.Addr
	Netmask  ipv4.Addr
	Gateway  ipv4.Addr
	Pool     []ipv4.Addr
	// Send transmits a reply to the client (broadcast at the link layer).
	Send func(m Message)

	leases map[ethernet.MAC]ipv4.Addr
	next   int
}

// Input handles one client message.
func (s *Server) Input(m Message) {
	if s.leases == nil {
		s.leases = map[ethernet.MAC]ipv4.Addr{}
	}
	switch m.Type {
	case Discover:
		ip, ok := s.leases[m.ClientHW]
		if !ok {
			if s.next >= len(s.Pool) {
				return // pool exhausted
			}
			ip = s.Pool[s.next]
			s.next++
			s.leases[m.ClientHW] = ip
		}
		s.Send(Message{Type: Offer, XID: m.XID, ClientHW: m.ClientHW,
			YourIP: ip, ServerIP: s.ServerIP, Netmask: s.Netmask, Gateway: s.Gateway})
	case Request:
		ip, ok := s.leases[m.ClientHW]
		if !ok || (m.ReqIP != 0 && m.ReqIP != ip) {
			s.Send(Message{Type: Nak, XID: m.XID, ClientHW: m.ClientHW, ServerIP: s.ServerIP})
			return
		}
		s.Send(Message{Type: Ack, XID: m.XID, ClientHW: m.ClientHW,
			YourIP: ip, ServerIP: s.ServerIP, Netmask: s.Netmask, Gateway: s.Gateway})
	}
}
