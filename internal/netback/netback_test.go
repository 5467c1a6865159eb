package netback

import (
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// stubEndpoint records delivered frames (copying contents out, as a real
// endpoint consumes them, then releasing its buffer reference).
type stubEndpoint struct {
	mac    ethernet.MAC
	frames [][]byte
}

func (s *stubEndpoint) MAC() ethernet.MAC { return s.mac }
func (s *stubEndpoint) Deliver(f *bufpool.Buf) {
	s.frames = append(s.frames, append([]byte(nil), f.Bytes()...))
	f.Release()
}

func frame(dst, src ethernet.MAC, n int) []byte {
	f := make([]byte, 14+n)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

func TestBridgeUnicastForwarding(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	a := &stubEndpoint{mac: ethernet.MAC{1}}
	c := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(a, k)
	b.Attach(c, k)
	b.TransmitBytes(a.mac, frame(c.mac, a.mac, 100))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.frames) != 1 || len(a.frames) != 0 {
		t.Errorf("frames: dst=%d src=%d", len(c.frames), len(a.frames))
	}
	if got := k.Metrics().Counter("bridge_frames_total", obs.L("kind", "forwarded")).Value(); got != 1 {
		t.Errorf("bridge_frames_total{kind=forwarded} = %d, want 1", got)
	}
}

func TestBridgeBroadcastFloodsExceptSource(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	eps := []*stubEndpoint{{mac: ethernet.MAC{1}}, {mac: ethernet.MAC{2}}, {mac: ethernet.MAC{3}}}
	for _, e := range eps {
		b.Attach(e, k)
	}
	b.TransmitBytes(eps[0].mac, frame(ethernet.Broadcast, eps[0].mac, 50))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(eps[0].frames) != 0 || len(eps[1].frames) != 1 || len(eps[2].frames) != 1 {
		t.Error("broadcast delivery wrong")
	}
}

func TestBridgeUnknownDestinationCounted(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	b.TransmitBytes(ethernet.MAC{1}, frame(ethernet.MAC{9}, ethernet.MAC{1}, 10))
	if n := k.Metrics().Snapshot().Sum("bridge_no_route_total"); n != 1 {
		t.Errorf("bridge_no_route_total = %d, want 1", n)
	}
}

// A frame from a port taken down reaches nobody and is counted; the port's
// MAC is unknown to the bridge from then on.
func TestBridgeDownPortDropsCounted(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	src, dst := &stubEndpoint{mac: ethernet.MAC{1}}, &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(src, k)
	b.Attach(dst, k)
	b.DetachMAC(src.mac)
	b.TransmitBytes(src.mac, frame(dst.mac, src.mac, 10))
	b.TransmitBytes(dst.mac, frame(src.mac, dst.mac, 10))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(src.frames)+len(dst.frames) != 0 {
		t.Errorf("%d frames delivered across a down port", len(src.frames)+len(dst.frames))
	}
	s := k.Metrics().Snapshot()
	if down, noRoute := s.Sum("bridge_port_down_drops_total"), s.Sum("bridge_no_route_total"); down != 1 || noRoute != 1 {
		t.Errorf("port-down drops %d, no-route drops %d; want 1 and 1", down, noRoute)
	}
	if n := b.pool.InUse(); n != 0 {
		t.Errorf("%d staging buffers still in use", n)
	}
}

func TestBridgeDeliveryDelayIncludesCosts(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(dst, k)
	var deliveredAt sim.Time
	wrapped := &hookEndpoint{inner: dst, hook: func() { deliveredAt = k.Now() }}
	b.DetachMAC(dst.MAC())
	b.Attach(wrapped, k)
	b.TransmitBytes(ethernet.MAC{1}, frame(ethernet.MAC{2}, ethernet.MAC{1}, 1486))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	min := bridgeLink.Propagation + bridgeLink.PerPacketCost
	if deliveredAt.Sub(0) < min {
		t.Errorf("delivered after %v, want >= %v", deliveredAt.Sub(0), min)
	}
}

type hookEndpoint struct {
	inner *stubEndpoint
	hook  func()
}

func (h *hookEndpoint) MAC() ethernet.MAC      { return h.inner.mac }
func (h *hookEndpoint) Deliver(f *bufpool.Buf) { h.hook(); h.inner.Deliver(f) }

func TestBridgeLinkSerialisation(t *testing.T) {
	// Many large frames at once: the link resource serialises them, so
	// total time reflects the configured line rate.
	k := sim.NewKernel(1)
	b := NewBridgeNamed(k, "")
	dst := &stubEndpoint{mac: ethernet.MAC{2}}
	b.Attach(dst, k)
	const frames = 100
	for i := 0; i < frames; i++ {
		b.TransmitBytes(ethernet.MAC{1}, frame(ethernet.MAC{2}, ethernet.MAC{1}, 1486))
	}
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	wire := time.Duration(frames*1500) * bridgeLink.PerByteCost
	if end.Sub(0) < wire {
		t.Errorf("burst done in %v, faster than line rate %v", end.Sub(0), wire)
	}
	if len(dst.frames) != frames {
		t.Errorf("delivered %d/%d", len(dst.frames), frames)
	}
}

func TestTxRxSlotCodecs(t *testing.T) {
	s := mkSlot()
	EncodeTxReq(s, 77, 10, 1400, 5, true, 0xfeedface)
	gref, off, l, id, more, span := DecodeTxReq(s)
	if gref != 77 || off != 10 || l != 1400 || id != 5 || !more || span != 0xfeedface {
		t.Error("tx req codec broken")
	}
	EncodeRxReq(s, 88, 9)
	g2, id2 := DecodeRxReq(s)
	if g2 != 88 || id2 != 9 {
		t.Error("rx req codec broken")
	}
	EncodeRxRsp(s, 9, 1234, true, 42)
	id3, l3, ok3, sp3 := DecodeRxRsp(s)
	if id3 != 9 || l3 != 1234 || !ok3 || sp3 != 42 {
		t.Error("rx rsp codec broken")
	}
	EncodeRxRsp(s, 10, 0, false, 0)
	if id4, _, ok4, _ := DecodeRxRsp(s); id4 != 10 || ok4 {
		t.Error("rx error rsp codec broken")
	}
}

func mkSlot() *cstruct.View { return cstruct.Make(120) }
