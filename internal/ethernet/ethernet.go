// Package ethernet implements Ethernet II framing for the clean-slate
// protocol suite (paper Table 1). Frames are parsed and built in place over
// cstruct views: parsing splits header from payload with zero-copy
// sub-views (§3.5.1).
package ethernet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cstruct"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// ParseMAC parses the colon-separated format String produces.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("ethernet: bad MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("ethernet: bad MAC %q: %w", s, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// HeaderLen is the Ethernet II header size.
const HeaderLen = 14

// EtherTypes used by the stack.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
)

// Frame is a parsed Ethernet frame; Payload is a zero-copy sub-view.
type Frame struct {
	Dst, Src MAC
	Type     uint16
	Payload  *cstruct.View
}

// Parse splits an Ethernet frame. The returned payload shares storage with
// v; the caller's ownership of v transfers to the payload view (Parse
// releases v's own reference).
func Parse(v *cstruct.View) (Frame, error) {
	if v.Len() < HeaderLen {
		return Frame{}, fmt.Errorf("ethernet: frame too short (%d bytes)", v.Len())
	}
	var f Frame
	copy(f.Dst[:], v.Slice(0, 6))
	copy(f.Src[:], v.Slice(6, 6))
	f.Type = v.BE16(12)
	f.Payload = v.Sub(HeaderLen, v.Len()-HeaderLen)
	v.Release()
	return f, nil
}

// Encode writes an Ethernet header at the start of v.
func Encode(v *cstruct.View, dst, src MAC, etype uint16) {
	v.PutBytes(0, dst[:])
	v.PutBytes(6, src[:])
	v.PutBE16(12, etype)
}
