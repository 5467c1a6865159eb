package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

// FuzzTCPParse holds Parse to arbitrary bytes, with the checksum fixed up
// first so that the option parser is reached. Nothing may panic; a segment
// that parses carries exactly the bytes past its data offset; and once its
// payload view is released the receive page is back in its pool.
func FuzzTCPParse(f *testing.F) {
	src, dst := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	for _, seg := range []Segment{
		{SrcPort: 4000, DstPort: 80, Seq: 1 << 31, Flags: FlagSYN, MSS: 1460, WndScale: 7},
		{SrcPort: 80, DstPort: 4000, Seq: 9, Ack: 2, Flags: FlagACK | FlagPSH, Window: 512, WndScale: -1, Payload: []byte("hello")},
	} {
		v := cstruct.Make(seg.WireLen())
		Encode(v, src, dst, seg)
		f.Add(v.Bytes())
	}
	// A data offset of 24 whose one option claims 9 bytes.
	f.Add([]byte{0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0x60, FlagSYN, 0, 0, 0, 0, 0, 0, 2, 9, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > cstruct.PageSize {
			b = b[:cstruct.PageSize]
		}
		pool := cstruct.NewPool()
		page := pool.Get()
		page.PutBytes(0, b)
		if len(b) >= HeaderLen {
			page.PutBE16(16, 0)
			sum := ipv4.PseudoHeaderChecksum(src, dst, ipv4.ProtoTCP, len(b))
			page.PutBE16(16, ipv4.FinishChecksum(sum, page.Slice(0, len(b))))
		}
		wire := append([]byte(nil), page.Slice(0, len(b))...)
		v := page.Sub(0, len(b))
		page.Release()
		seg, err := Parse(src, dst, v)
		if err == nil {
			off := int(wire[12]>>4) * 4
			if seg.SrcPort != binary.BigEndian.Uint16(wire) || seg.Seq != binary.BigEndian.Uint32(wire[4:]) ||
				!bytes.Equal(seg.Payload, wire[off:]) {
				t.Fatalf("parsed %v from %x (data offset %d)", seg, wire, off)
			}
			if seg.WndScale < -1 || seg.WndScale > 255 {
				t.Fatalf("window scale %d", seg.WndScale)
			}
		} else if len(b) >= HeaderLen && int(wire[12]>>4)*4 == HeaderLen {
			t.Fatalf("a checksummed segment without options failed: %v", err)
		}
		seg.releaseView()
		if pool.InUse != 0 {
			t.Fatalf("%d pages still in use after Parse and release", pool.InUse)
		}
	})
}
