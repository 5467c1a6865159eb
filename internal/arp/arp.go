// Package arp implements the Address Resolution Protocol for the
// clean-slate stack (paper Table 1): cache, request/reply handling, and
// asynchronous resolution with retry, integrated with the lwt scheduler.
package arp

import (
	"fmt"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/lwt"
)

// PacketLen is the size of an ARP packet for Ethernet/IPv4.
const PacketLen = 28

// Opcodes.
const (
	OpRequest uint16 = 1
	OpReply   uint16 = 2
)

// Packet is a parsed ARP packet.
type Packet struct {
	Op                 uint16
	SenderHW, TargetHW ethernet.MAC
	SenderIP, TargetIP ipv4.Addr
}

// Parse decodes an ARP packet and releases the view.
func Parse(v *cstruct.View) (Packet, error) {
	defer v.Release()
	if v.Len() < PacketLen {
		return Packet{}, fmt.Errorf("arp: packet too short (%d)", v.Len())
	}
	if v.BE16(0) != 1 || v.BE16(2) != 0x0800 || v.U8(4) != 6 || v.U8(5) != 4 {
		return Packet{}, fmt.Errorf("arp: not Ethernet/IPv4")
	}
	var p Packet
	p.Op = v.BE16(6)
	copy(p.SenderHW[:], v.Slice(8, 6))
	p.SenderIP = ipv4.Addr(v.BE32(14))
	copy(p.TargetHW[:], v.Slice(18, 6))
	p.TargetIP = ipv4.Addr(v.BE32(24))
	return p, nil
}

// Encode writes an ARP packet into v.
func Encode(v *cstruct.View, p Packet) {
	v.PutBE16(0, 1)      // hardware: Ethernet
	v.PutBE16(2, 0x0800) // protocol: IPv4
	v.PutU8(4, 6)
	v.PutU8(5, 4)
	v.PutBE16(6, p.Op)
	v.PutBytes(8, p.SenderHW[:])
	v.PutBE32(14, uint32(p.SenderIP))
	v.PutBytes(18, p.TargetHW[:])
	v.PutBE32(24, uint32(p.TargetIP))
}

// retryInterval and maxRetries bound unanswered resolution.
const (
	retryInterval = 500 * time.Millisecond
	maxRetries    = 3
)

// Handler owns the ARP cache and protocol logic for one interface.
type Handler struct {
	S     *lwt.Scheduler
	MyIP  ipv4.Addr
	MyMAC ethernet.MAC
	// Output transmits an ARP packet to dst (link layer provided by the
	// stack).
	Output func(dst ethernet.MAC, pkt Packet)

	cache   map[ipv4.Addr]ethernet.MAC
	waiting map[ipv4.Addr][]func(ethernet.MAC, error)
}

// NewHandler creates an ARP handler.
func NewHandler(s *lwt.Scheduler, ip ipv4.Addr, mac ethernet.MAC) *Handler {
	return &Handler{
		S: s, MyIP: ip, MyMAC: mac,
		cache:   map[ipv4.Addr]ethernet.MAC{},
		waiting: map[ipv4.Addr][]func(ethernet.MAC, error){},
	}
}

// Cached returns ip's MAC when the cache holds it: the case Resolve answers
// on the spot, for callers that would rather not build a callback unless
// there is an exchange to wait for.
func (h *Handler) Cached(ip ipv4.Addr) (ethernet.MAC, bool) {
	mac, ok := h.cache[ip]
	return mac, ok
}

// Learn inserts a mapping (also called for gratuitous ARP).
func (h *Handler) Learn(ip ipv4.Addr, mac ethernet.MAC) {
	h.cache[ip] = mac
	if cbs := h.waiting[ip]; len(cbs) > 0 {
		delete(h.waiting, ip)
		for _, cb := range cbs {
			cb(mac, nil)
		}
	}
}

// Input handles a received ARP packet: learn sender, reply to requests for
// our address.
func (h *Handler) Input(p Packet) {
	h.Learn(p.SenderIP, p.SenderHW)
	if p.Op == OpRequest && p.TargetIP == h.MyIP {
		h.Output(p.SenderHW, Packet{
			Op:       OpReply,
			SenderHW: h.MyMAC, SenderIP: h.MyIP,
			TargetHW: p.SenderHW, TargetIP: p.SenderIP,
		})
	}
}

// Resolve calls cb with the MAC for ip, immediately on a cache hit or after
// request/reply exchange otherwise. Unanswered requests are retried
// maxRetries times and then fail.
func (h *Handler) Resolve(ip ipv4.Addr, cb func(ethernet.MAC, error)) {
	if mac, ok := h.Cached(ip); ok {
		cb(mac, nil)
		return
	}
	first := len(h.waiting[ip]) == 0
	h.waiting[ip] = append(h.waiting[ip], cb)
	if first {
		h.sendRequest(ip, 0)
	}
}

func (h *Handler) sendRequest(ip ipv4.Addr, attempt int) {
	if _, done := h.cache[ip]; done {
		return
	}
	if attempt >= maxRetries {
		cbs := h.waiting[ip]
		delete(h.waiting, ip)
		err := fmt.Errorf("arp: no reply for %v", ip)
		for _, cb := range cbs {
			cb(ethernet.MAC{}, err)
		}
		return
	}
	h.Output(ethernet.Broadcast, Packet{
		Op:       OpRequest,
		SenderHW: h.MyMAC, SenderIP: h.MyIP,
		TargetIP: ip,
	})
	lwt.Map(h.S.Sleep(retryInterval), func(struct{}) struct{} {
		if len(h.waiting[ip]) > 0 {
			h.sendRequest(ip, attempt+1)
		}
		return struct{}{}
	})
}

// GratuitousProbe announces our own binding (probe/announce on interface
// bring-up).
func (h *Handler) GratuitousProbe() {
	h.Output(ethernet.Broadcast, Packet{
		Op:       OpRequest,
		SenderHW: h.MyMAC, SenderIP: h.MyIP,
		TargetIP: h.MyIP,
	})
}
