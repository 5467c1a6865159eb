package udp

import (
	"testing"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

func TestHeaderRoundTrip(t *testing.T) {
	v := cstruct.Make(64)
	Encode(v, 5353, 53, 11)
	v.PutBytes(HeaderLen, []byte("hello query"))
	h, data, err := Parse(v.Sub(0, HeaderLen+11))
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 5353 || h.DstPort != 53 || h.Length != HeaderLen+11 {
		t.Errorf("header = %+v", h)
	}
	if data.String(0, 11) != "hello query" {
		t.Error("payload corrupted")
	}
	data.Release()
}

func TestParseRejectsBadLength(t *testing.T) {
	v := cstruct.Make(16)
	Encode(v, 1, 2, 100) // claims 108 bytes, view is 16
	if _, _, err := Parse(v.Sub(0, 16)); err == nil {
		t.Error("overlong datagram accepted")
	}
	if _, _, err := Parse(cstruct.Make(4)); err == nil {
		t.Error("short datagram accepted")
	}
}

func TestMuxRouting(t *testing.T) {
	m := NewMux()
	var got string
	n := 0
	if err := m.Bind(53, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
		got = data.String(0, data.Len())
		n++
		data.Release()
	}); err != nil {
		t.Fatal(err)
	}
	payload := cstruct.Wrap([]byte("q"))
	m.Input(ipv4.AddrFrom4(1, 2, 3, 4), Header{SrcPort: 999, DstPort: 53}, payload)
	if got != "q" || n != 1 {
		t.Errorf("handler got %q in %d calls, want \"q\" once", got, n)
	}
}

func TestMuxUnboundDrops(t *testing.T) {
	m := NewMux()
	m.Bind(53, func(_ ipv4.Addr, _ uint16, data *cstruct.View) {
		t.Error("a datagram for port 9999 reached port 53's handler")
		data.Release()
	})
	pool := cstruct.NewPool()
	page := pool.Get()
	m.Input(ipv4.AddrFrom4(1, 1, 1, 1), Header{DstPort: 9999}, page)
	if pool.InUse != 0 {
		t.Error("dropped datagram leaked its page")
	}
}

func TestDoubleBindRejected(t *testing.T) {
	m := NewMux()
	m.Bind(7, func(ipv4.Addr, uint16, *cstruct.View) {})
	if err := m.Bind(7, func(ipv4.Addr, uint16, *cstruct.View) {}); err == nil {
		t.Error("double bind accepted")
	}
}
