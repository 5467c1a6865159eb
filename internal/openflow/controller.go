package openflow

import (
	"encoding/binary"
	"time"
)

// Transport carries OpenFlow messages between a switch and a controller.
// Send must deliver the message to the peer's Input eventually (directly,
// over vchan, or over TCP — the harness decides).
type Transport interface {
	Send(msg []byte)
}

// ControllerParams hold the per-message processing cost of the controller
// runtime — the knob that separates Mirage, NOX and Maestro in Figure 11.
type ControllerParams struct {
	PacketInCost time.Duration // learning + flow-mod + packet-out emit
}

// DefaultControllerParams are the Mirage appliance costs (between NOX's
// optimised C++ and Maestro's JVM, per Figure 11).
func DefaultControllerParams() ControllerParams {
	return ControllerParams{PacketInCost: 9 * time.Microsecond}
}

// Controller is a learning-switch OpenFlow controller: on packet-in it
// learns the source MAC's port and either installs a flow toward a known
// destination or floods.
type Controller struct {
	Params ControllerParams
	// Charge books CPU cost (wired to the hosting domain's vCPU).
	Charge func(time.Duration)

	// PacketIns and FlowMods count processed work.
	PacketIns  int
	FlowMods   int
	PacketOuts int

	conns []*ControllerConn
}

// NewController returns a learning-switch controller.
func NewController() *Controller {
	return &Controller{Params: DefaultControllerParams()}
}

// ControllerConn is the controller's state for one attached switch.
type ControllerConn struct {
	ctrl   *Controller
	out    Transport
	framer Framer
	macs   map[[6]byte]uint16 // learned MAC -> port
	hellod bool
}

// Attach registers a switch connection; the controller immediately sends
// HELLO and FEATURES_REQUEST.
func (c *Controller) Attach(out Transport) *ControllerConn {
	cc := &ControllerConn{ctrl: c, out: out, macs: map[[6]byte]uint16{}}
	c.conns = append(c.conns, cc)
	out.Send(EncodeHello(1))
	out.Send(EncodeFeaturesRequest(2))
	return cc
}

// Input feeds stream bytes from the switch into the controller.
func (cc *ControllerConn) Input(data []byte) error {
	msgs, err := cc.framer.Push(data)
	if err != nil {
		return err
	}
	for _, m := range msgs {
		h, err := ParseHeader(m)
		if err != nil {
			return err
		}
		switch h.Type {
		case TypeHello, TypeFeaturesReply:
			// Handshake bookkeeping only.
		case TypeEchoRequest:
			reply := append([]byte(nil), m...)
			reply[1] = TypeEchoReply
			cc.out.Send(reply)
		case TypePacketIn:
			pi, err := ParsePacketIn(m)
			if err != nil {
				return err
			}
			cc.packetIn(pi)
		}
	}
	return nil
}

// packetIn is the learning-switch application (the cbench workload of
// Figure 11 measures exactly this path).
func (cc *ControllerConn) packetIn(pi PacketIn) {
	c := cc.ctrl
	c.PacketIns++
	if c.Charge != nil {
		c.Charge(c.Params.PacketInCost)
	}
	if len(pi.Data) < 12 {
		return
	}
	var dst, src [6]byte
	copy(dst[:], pi.Data[0:6])
	copy(src[:], pi.Data[6:12])
	cc.macs[src] = pi.InPort
	if outPort, known := cc.macs[dst]; known {
		c.FlowMods++
		cc.out.Send(EncodeFlowMod(FlowMod{
			XID: pi.XID,
			Match: Match{
				InPort: pi.InPort,
				DlSrc:  src,
				DlDst:  dst,
			},
			Command:  0, // ADD
			IdleTime: 60,
			Priority: 100,
			BufferID: pi.BufferID,
			OutPort:  outPort,
		}))
		return
	}
	c.PacketOuts++
	cc.out.Send(EncodePacketOut(PacketOut{
		XID: pi.XID, BufferID: pi.BufferID, InPort: pi.InPort,
		OutPort: 0xFFFB, // OFPP_FLOOD
	}))
}

// FlowEntry is one switch flow-table entry.
type FlowEntry struct {
	Match    Match
	Priority uint16
	OutPort  uint16
}

// Switch is the switch-side library: a flow table plus the protocol glue
// to be controlled as if it were a hardware datapath (§4.3 — appliances
// link this to act as router/firewall/middlebox).
type Switch struct {
	DatapathID uint64
	out        Transport
	framer     Framer
	table      []FlowEntry
	nextXID    uint32

	// Stats
	Matched    int
	Missed     int
	FlowsAdded int
}

// NewSwitch creates a switch that reports to the controller via out.
func NewSwitch(dpid uint64, out Transport) *Switch {
	return &Switch{DatapathID: dpid, out: out}
}

// Input feeds controller stream bytes into the switch.
func (sw *Switch) Input(data []byte) error {
	msgs, err := sw.framer.Push(data)
	if err != nil {
		return err
	}
	for _, m := range msgs {
		h, err := ParseHeader(m)
		if err != nil {
			return err
		}
		switch h.Type {
		case TypeHello:
			sw.out.Send(EncodeHello(h.XID))
		case TypeFeaturesRequest:
			sw.out.Send(EncodeFeaturesReply(FeaturesReply{
				XID: h.XID, DatapathID: sw.DatapathID, NBuffers: 256, NTables: 1, Ports: 4,
			}))
		case TypeFlowMod:
			fm, err := ParseFlowMod(m)
			if err != nil {
				return err
			}
			sw.FlowsAdded++
			sw.table = append(sw.table, FlowEntry{Match: fm.Match, Priority: fm.Priority, OutPort: fm.OutPort})
		case TypePacketOut:
			// Datapath would emit the packet; nothing to model here.
		}
	}
	return nil
}

// Forward looks up a frame in the flow table; on a miss it raises a
// packet-in to the controller and reports (0, false).
func (sw *Switch) Forward(inPort uint16, frame []byte) (uint16, bool) {
	var dst, src [6]byte
	if len(frame) >= 12 {
		copy(dst[:], frame[0:6])
		copy(src[:], frame[6:12])
	}
	bestIdx, bestPri := -1, -1
	for i, e := range sw.table {
		if e.Match.DlDst == dst && e.Match.DlSrc == src && e.Match.InPort == inPort && int(e.Priority) > bestPri {
			bestIdx, bestPri = i, int(e.Priority)
		}
	}
	if bestIdx >= 0 {
		sw.Matched++
		return sw.table[bestIdx].OutPort, true
	}
	sw.Missed++
	sw.nextXID++
	sw.out.Send(EncodePacketIn(PacketIn{
		XID: sw.nextXID, BufferID: uint32(sw.nextXID), InPort: inPort, Data: frame,
	}))
	return 0, false
}

// FlowCount returns the number of installed flows.
func (sw *Switch) FlowCount() int { return len(sw.table) }

// MakeFrame builds a minimal Ethernet header for cbench-style traffic.
func MakeFrame(dst, src [6]byte) []byte {
	b := make([]byte, 64)
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	binary.BigEndian.PutUint16(b[12:], 0x0800)
	return b
}
