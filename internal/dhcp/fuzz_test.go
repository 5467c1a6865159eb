package dhcp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

// withOptions is a BOOTP preamble with the magic cookie and then opts, the
// options area exactly as it goes on the wire.
func withOptions(opts ...byte) []byte {
	b := make([]byte, fixedLen, fixedLen+len(opts))
	copy(b[236:], magic[:])
	return append(b, opts...)
}

// TestParseRejectsBadOptionLengths: an option Parse reads must have the
// length RFC 2132 gives it. Shorter ones used to read the next option's
// bytes, or — at the end of the message — panic past it.
func TestParseRejectsBadOptionLengths(t *testing.T) {
	typeOpt := []byte{53, 1, Discover}
	cases := []struct {
		name string
		b    []byte
	}{
		// 243 bytes: the address option ends the message with no address.
		{"requested-ip length 0 at the end", withOptions(50, 0, 255)},
		{"message type length 0", withOptions(53, 0, 255)},
		{"message type length 2", withOptions(53, 2, Discover, 0, 255)},
		{"router length 6", append(withOptions(typeOpt...), 3, 6, 10, 0, 0, 1, 10, 0, 255)},
	}
	for _, code := range []byte{1, 3, 50} {
		for l := byte(1); l <= 3; l++ {
			// The short option is followed by the message type, whose bytes
			// it would otherwise have read as part of an address.
			opts := append([]byte{code, l}, make([]byte, l)...)
			cases = append(cases, struct {
				name string
				b    []byte
			}{fmt.Sprintf("option %d length %d", code, l), withOptions(append(append(opts, typeOpt...), 255)...)})
		}
	}
	for _, c := range cases {
		m, err := Parse(cstruct.Wrap(c.b))
		if err == nil || !strings.Contains(err.Error(), "length") {
			t.Errorf("%s: Parse = %+v, %v; want a length error", c.name, m, err)
		}
	}

	// The router option is a list: the first of two routers is the gateway.
	m, err := Parse(cstruct.Wrap(append(withOptions(typeOpt...), 3, 8, 10, 0, 0, 1, 10, 0, 0, 2, 255)))
	if err != nil || m.Gateway != ipv4.AddrFrom4(10, 0, 0, 1) {
		t.Errorf("two routers: Parse = %+v, %v; want gateway 10.0.0.1", m, err)
	}
}

// FuzzDHCPParse: Parse sees whatever arrives on UDP port 68, so it must
// never panic, and whatever it accepts Encode writes back as a message that
// parses to the same value.
func FuzzDHCPParse(f *testing.F) {
	for _, m := range []Message{
		{Type: Discover, XID: 1, ClientHW: clientHW},
		{Type: Offer, XID: 2, ClientHW: clientHW, YourIP: ipv4.AddrFrom4(10, 0, 0, 100), ServerIP: serverIP, Netmask: mask, Gateway: gw},
		{Type: Request, XID: 3, ClientHW: clientHW, ReqIP: ipv4.AddrFrom4(10, 0, 0, 100), ServerIP: serverIP},
	} {
		v := cstruct.Make(512)
		f.Add(v.Bytes()[:Encode(v, m)])
	}
	f.Add(withOptions(50, 0, 255))
	f.Add(withOptions(1, 2, 0, 0, 53, 1, Discover, 255))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Parse(cstruct.Wrap(b))
		if err != nil {
			return
		}
		v := cstruct.Make(512)
		back, err := Parse(v.Sub(0, Encode(v, m)))
		if err != nil || back != m {
			t.Fatalf("round trip: %+v became %+v, %v", m, back, err)
		}
	})
}
