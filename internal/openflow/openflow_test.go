package openflow

import (
	"testing"
	"testing/quick"
	"time"
)

// loopTransport delivers messages synchronously to a sink.
type loopTransport struct{ sink func([]byte) }

func (l *loopTransport) Send(msg []byte) { l.sink(msg) }

func TestHeaderRoundTrip(t *testing.T) {
	b := EncodeHello(0xDEAD)
	h, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != TypeHello || h.XID != 0xDEAD || h.Length != HeaderLen {
		t.Errorf("header = %+v", h)
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	in := PacketIn{XID: 9, BufferID: 77, InPort: 3, Data: MakeFrame([6]byte{1}, [6]byte{2})}
	out, err := ParsePacketIn(EncodePacketIn(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.XID != 9 || out.BufferID != 77 || out.InPort != 3 || len(out.Data) != len(in.Data) {
		t.Errorf("packet_in = %+v", out)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	in := FlowMod{XID: 5, Match: Match{InPort: 2, DlSrc: [6]byte{1, 2, 3}, DlDst: [6]byte{4, 5, 6}},
		Command: 0, IdleTime: 60, Priority: 100, BufferID: 42, OutPort: 7}
	out, err := ParseFlowMod(EncodeFlowMod(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Match != in.Match || out.OutPort != 7 || out.Priority != 100 || out.IdleTime != 60 {
		t.Errorf("flow_mod = %+v", out)
	}
}

func TestFramerSplitsCoalescedStream(t *testing.T) {
	var stream []byte
	stream = append(stream, EncodeHello(1)...)
	stream = append(stream, EncodePacketIn(PacketIn{XID: 2, Data: make([]byte, 30)})...)
	stream = append(stream, EncodeHello(3)...)
	var f Framer
	// Feed a byte at a time: framing must be byte-accurate.
	var msgs [][]byte
	for _, c := range stream {
		got, err := f.Push([]byte{c})
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, got...)
	}
	if len(msgs) != 3 {
		t.Fatalf("framed %d messages, want 3", len(msgs))
	}
	if h, _ := ParseHeader(msgs[1]); h.Type != TypePacketIn || h.XID != 2 {
		t.Errorf("middle message = %+v", h)
	}
}

func TestFramerRejectsBadVersion(t *testing.T) {
	var f Framer
	if _, err := f.Push([]byte{0x99, 0, 0, 8, 0, 0, 0, 0}); err == nil {
		t.Error("bad version accepted")
	}
}

// wire connects a controller and a switch through in-memory transports.
func wire(t *testing.T) (*Controller, *Switch) {
	t.Helper()
	ctrl := NewController()
	var cc *ControllerConn
	var sw *Switch
	toSwitch := &loopTransport{sink: func(m []byte) {
		if err := sw.Input(m); err != nil {
			t.Fatalf("switch input: %v", err)
		}
	}}
	var queued [][]byte // replies generated while Attach is still running
	toController := &loopTransport{sink: func(m []byte) {
		if cc == nil {
			queued = append(queued, m)
			return
		}
		if err := cc.Input(m); err != nil {
			t.Fatalf("controller input: %v", err)
		}
	}}
	sw = NewSwitch(0xD0, toController)
	cc = ctrl.Attach(toSwitch)
	for _, m := range queued {
		if err := cc.Input(m); err != nil {
			t.Fatalf("controller input: %v", err)
		}
	}
	return ctrl, sw
}

func TestLearningSwitchInstallsFlows(t *testing.T) {
	ctrl, sw := wire(t)
	hostA := [6]byte{0, 0, 0, 0, 0, 0xA}
	hostB := [6]byte{0, 0, 0, 0, 0, 0xB}

	// A -> B: destination unknown, controller floods; A's port learned.
	if _, ok := sw.Forward(1, MakeFrame(hostB, hostA)); ok {
		t.Fatal("first frame matched an empty flow table")
	}
	if ctrl.PacketOuts != 1 {
		t.Errorf("PacketOuts = %d, want 1 (flood)", ctrl.PacketOuts)
	}
	// B -> A: A known now, controller installs a flow.
	if _, ok := sw.Forward(2, MakeFrame(hostA, hostB)); ok {
		t.Fatal("second frame matched before flow installed")
	}
	if ctrl.FlowMods != 1 {
		t.Errorf("FlowMods = %d, want 1", ctrl.FlowMods)
	}
	if sw.FlowCount() != 1 {
		t.Fatalf("switch flow table has %d entries, want 1", sw.FlowCount())
	}
	// B -> A again: now matches in the datapath, port 1.
	port, ok := sw.Forward(2, MakeFrame(hostA, hostB))
	if !ok || port != 1 {
		t.Errorf("Forward = (%d, %v), want (1, true)", port, ok)
	}
	if ctrl.PacketIns != 2 {
		t.Errorf("PacketIns = %d, want 2 (third frame handled in datapath)", ctrl.PacketIns)
	}
}

// TestIdenticalFlowModReplaces: an add with the match fields and priority
// of an installed entry replaces it (OpenFlow 1.0.0 §4.6); the same match
// at another priority is a second entry.
func TestIdenticalFlowModReplaces(t *testing.T) {
	sw := NewSwitch(0xD0, &loopTransport{sink: func([]byte) {}})
	m := Match{InPort: 2, DlSrc: [6]byte{0xB}, DlDst: [6]byte{0xA}}
	for _, fm := range []FlowMod{
		{XID: 1, Match: m, Priority: 100, OutPort: 1},
		{XID: 2, Match: m, Priority: 100, OutPort: 3},
	} {
		if err := sw.Input(EncodeFlowMod(fm)); err != nil {
			t.Fatal(err)
		}
	}
	if n := sw.FlowCount(); n != 1 {
		t.Fatalf("two identical FLOW_MODs left %d entries, want 1", n)
	}
	if port, ok := sw.Forward(2, MakeFrame([6]byte{0xA}, [6]byte{0xB})); !ok || port != 3 {
		t.Errorf("Forward = (%d, %v), want the replacing entry's port 3", port, ok)
	}
	if err := sw.Input(EncodeFlowMod(FlowMod{XID: 3, Match: m, Priority: 200, OutPort: 4})); err != nil {
		t.Fatal(err)
	}
	if n := sw.FlowCount(); n != 2 {
		t.Fatalf("the same match at another priority left %d entries, want 2", n)
	}
}

func TestControllerChargesCost(t *testing.T) {
	ctrl, sw := wire(t)
	var charged int
	ctrl.Charge = func(time.Duration) { charged++ }
	sw.Forward(1, MakeFrame([6]byte{9}, [6]byte{8}))
	if charged != 1 {
		t.Errorf("charge hook fired %d times, want 1", charged)
	}
}

// Property: the controller handles any fragmentation of its input stream
// identically (framing invariance).
func TestPropFramingInvariance(t *testing.T) {
	f := func(cuts []uint8) bool {
		mk := func() ([]byte, *Controller) {
			ctrl := NewController()
			sink := &loopTransport{sink: func([]byte) {}}
			cc := ctrl.Attach(sink)
			var stream []byte
			for i := 0; i < 20; i++ {
				stream = append(stream, EncodePacketIn(PacketIn{
					XID: uint32(i), InPort: uint16(i % 4),
					Data: MakeFrame([6]byte{byte(i)}, [6]byte{byte(i + 1)}),
				})...)
			}
			_ = cc
			return stream, ctrl
		}
		streamA, ctrlA := mk()
		ccA := ctrlA.conns[0]
		ccA.Input(streamA) // one shot

		streamB, ctrlB := mk()
		ccB := ctrlB.conns[0]
		pos := 0
		for _, c := range cuts {
			n := int(c)%64 + 1
			if pos+n > len(streamB) {
				n = len(streamB) - pos
			}
			ccB.Input(streamB[pos : pos+n])
			pos += n
			if pos == len(streamB) {
				break
			}
		}
		if pos < len(streamB) {
			ccB.Input(streamB[pos:])
		}
		return ctrlA.PacketIns == ctrlB.PacketIns
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
