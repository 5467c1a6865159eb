package openflow

import (
	"encoding/binary"
	"testing"
)

// FuzzOpenFlowInput feeds arbitrary byte streams, cut into chunks at the
// fuzzer's choice, to both ends of a connection: a controller's
// ControllerConn and a switch. Nothing may panic, and after every chunk each
// framer holds at most one partial message: fewer bytes than a header, or a
// valid header whose message has not all arrived.
func FuzzOpenFlowInput(f *testing.F) {
	frame := MakeFrame([6]byte{0xB}, [6]byte{0xA})
	var stream []byte
	for _, m := range [][]byte{
		EncodeHello(1),
		EncodeFeaturesRequest(2),
		EncodePacketIn(PacketIn{XID: 3, BufferID: 3, InPort: 1, Data: frame}),
		EncodeFlowMod(FlowMod{XID: 4, Match: Match{InPort: 1, DlSrc: [6]byte{0xA}, DlDst: [6]byte{0xB}}, Priority: 100, OutPort: 2}),
		EncodePacketOut(PacketOut{XID: 5, BufferID: 3, InPort: 1, OutPort: 0xFFFB}),
		{Version, TypeEchoRequest, 0, 8, 0, 0, 0, 6},
	} {
		stream = append(stream, m...)
	}
	f.Add(stream, []byte{3, 17, 40})
	f.Add([]byte{Version, TypeFlowMod, 0, 8, 0, 0, 0, 1}, []byte{})        // a FLOW_MOD too short for its body
	f.Add([]byte{Version, TypePacketIn, 0, 9, 0, 0, 0, 1, 0}, []byte{})    // a PACKET_IN too short for its body
	f.Add([]byte{Version, TypeHello, 0, 4, 0, 0, 0, 1, Version}, []byte{}) // a length below the header
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		sink := &loopTransport{sink: func([]byte) {}}
		cc := NewController().Attach(sink)
		sw := NewSwitch(1, sink)
		for len(stream) > 0 {
			n := len(stream)
			if len(cuts) > 0 {
				n = min(n, int(cuts[0])+1)
				cuts = cuts[1:]
			}
			chunk := stream[:n]
			stream = stream[n:]
			cc.Input(chunk)
			sw.Input(chunk)
			for _, fr := range []*Framer{&cc.framer, &sw.framer} {
				if len(fr.buf) < HeaderLen {
					continue
				}
				if fr.buf[0] != Version {
					t.Fatalf("framer holds %d bytes that do not start a message", len(fr.buf))
				}
				if l := int(binary.BigEndian.Uint16(fr.buf[2:])); l < HeaderLen || l <= len(fr.buf) {
					t.Fatalf("framer holds %d bytes for a message of %d", len(fr.buf), l)
				}
			}
		}
	})
}
