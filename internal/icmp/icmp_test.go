package icmp

import (
	"bytes"
	"testing"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
)

func TestEchoRoundTrip(t *testing.T) {
	v := cstruct.Make(256)
	in := Echo{Type: TypeEchoRequest, ID: 42, Seq: 7, Payload: []byte("ping data")}
	n := EncodeEcho(v, in)
	out, err := ParseEcho(v.Sub(0, n))
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ID != in.ID || out.Seq != in.Seq || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip: %+v", out)
	}
}

func TestChecksumValidated(t *testing.T) {
	v := cstruct.Make(64)
	n := EncodeEcho(v, Echo{Type: TypeEchoRequest, ID: 1, Seq: 1})
	v.PutU8(n-1, v.U8(n-1)^0xFF)
	if _, err := ParseEcho(v.Sub(0, n)); err == nil {
		t.Error("corrupted echo accepted")
	}
}

func TestHandlerAnswersRequests(t *testing.T) {
	var sentTo ipv4.Addr
	var sent Echo
	n := 0
	h := &Handler{Output: func(dst ipv4.Addr, e Echo) { sentTo, sent = dst, e; n++ }}
	src := ipv4.AddrFrom4(10, 0, 0, 9)
	h.Input(src, Echo{Type: TypeEchoRequest, ID: 3, Seq: 8, Payload: []byte("xyz")})
	if sentTo != src || sent.Type != TypeEchoReply || sent.ID != 3 || sent.Seq != 8 || string(sent.Payload) != "xyz" {
		t.Errorf("reply = %+v to %v", sent, sentTo)
	}
	if n != 1 {
		t.Errorf("%d replies sent, want 1", n)
	}
}

func TestHandlerRoutesReplies(t *testing.T) {
	var got Echo
	n := 0
	h := &Handler{
		Output:  func(ipv4.Addr, Echo) { t.Error("reply triggered output") },
		OnReply: func(from ipv4.Addr, e Echo) { got = e; n++ },
	}
	h.Input(ipv4.AddrFrom4(1, 1, 1, 1), Echo{Type: TypeEchoReply, ID: 5, Seq: 6})
	if got.ID != 5 || got.Seq != 6 {
		t.Errorf("OnReply got %+v", got)
	}
	if n != 1 {
		t.Errorf("OnReply ran %d times, want 1", n)
	}
}

func TestShortMessageRejected(t *testing.T) {
	if _, err := ParseEcho(cstruct.Make(4)); err == nil {
		t.Error("short echo accepted")
	}
}
