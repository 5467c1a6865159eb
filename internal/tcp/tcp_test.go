package tcp

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

func cstructMake(n int) *cstruct.View { return cstruct.Make(n) }

// host is a test endpoint: a TCP stack with its own scheduler, woken by a
// signal whenever the pipe injects a segment.
type host struct {
	st  *Stack
	s   *lwt.Scheduler
	sig *sim.Signal
}

// pipe connects two hosts with a delivery delay and optional drop and
// duplication rules.
type pipe struct {
	k     *sim.Kernel
	delay time.Duration
	// drop, if set, discards a segment (called once per transmission).
	drop func(seg Segment) bool
	// dup, if set, delivers a second copy of a segment.
	dup func(seg Segment) bool

	Delivered  int
	Dropped    int
	Duplicated int
}

func newPair(k *sim.Kernel, delay time.Duration) (*host, *host, *pipe) {
	p := &pipe{k: k, delay: delay}
	mk := func(name string, ip ipv4.Addr) *host {
		s := lwt.NewScheduler(k)
		h := &host{s: s, sig: k.NewSignal(name + "-rx")}
		h.st = NewStack(s, ip, DefaultParams())
		s.OnSignal(h.sig, func() {})
		return h
	}
	a := mk("a", ipv4.AddrFrom4(10, 0, 0, 1))
	b := mk("b", ipv4.AddrFrom4(10, 0, 0, 2))
	connect := func(from, to *host) {
		from.st.Output = func(dst ipv4.Addr, seg Segment) {
			if p.drop != nil && p.drop(seg) {
				p.Dropped++
				return
			}
			p.Delivered++
			src := from.st.LocalIP
			copies := 1
			if p.dup != nil && p.dup(seg) {
				copies = 2
				p.Duplicated++
			}
			for i := 0; i < copies; i++ {
				k.After(p.delay, func() {
					to.st.Input(src, seg)
					to.sig.Set()
				})
			}
		}
	}
	connect(a, b)
	connect(b, a)
	return a, b, p
}

func TestHandshakeAndEcho(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)

	var echoed []byte
	k.Spawn("server", func(p *sim.Proc) {
		l, err := b.st.Listen(80)
		if err != nil {
			t.Error(err)
			return
		}
		main := lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Read(4096), func(data []byte) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Write(append([]byte("echo:"), data...)), func(int) *lwt.Promise[struct{}] {
					c.Close()
					return lwt.Return(b.s, struct{}{})
				})
			})
		})
		if err := b.s.Run(p, main); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			if c.State() != StateEstablished {
				t.Errorf("client state = %v after connect", c.State())
			}
			return lwt.Bind(c.Write([]byte("hello")), func(int) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Read(4096), func(data []byte) *lwt.Promise[struct{}] {
					echoed = data
					c.Close()
					return lwt.Return(a.s, struct{}{})
				})
			})
		})
		if err := a.s.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if string(echoed) != "echo:hello" {
		t.Fatalf("echoed = %q, want echo:hello", echoed)
	}
}

// transfer runs a bulk transfer of payload from a to b and returns what b
// received plus the client conn for stats.
func transfer(t *testing.T, k *sim.Kernel, a, b *host, payload []byte, budget time.Duration) ([]byte, *Conn) {
	t.Helper()
	var got bytes.Buffer
	var clientConn *Conn
	serverDone := false

	k.Spawn("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(5001)
		var loop func(c *Conn) *lwt.Promise[struct{}]
		loop = func(c *Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
				if len(data) == 0 {
					c.Close()
					serverDone = true
					return c.Done()
				}
				got.Write(data)
				return loop(c)
			})
		}
		main := lwt.Bind(l.Accept(), loop)
		if err := b.s.Run(p, main); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 5001), func(c *Conn) *lwt.Promise[struct{}] {
			clientConn = c
			return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
				c.Close()
				return c.Done() // keep the VM (and its timers) alive until fully closed
			})
		})
		if err := a.s.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(budget); err != nil {
		t.Fatal(err)
	}
	if !serverDone {
		t.Fatal("transfer did not complete within budget")
	}
	return got.Bytes(), clientConn
}

func mkPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i>>8)
	}
	return p
}

func TestBulkTransferLossless(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	payload := mkPayload(1 << 20)
	got, c := transfer(t, k, a, b, payload, 60*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %d bytes, corrupted or short (want %d)", len(got), len(payload))
	}
	if n := c.st.mxRetransmits.Value(); n != 0 {
		t.Errorf("lossless transfer retransmitted %d segments", n)
	}
}

func TestFastRetransmitOnIsolatedLoss(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	n := 0
	p.drop = func(seg Segment) bool {
		if len(seg.Payload) == 0 {
			return false
		}
		n++
		return n%50 == 25 // drop an isolated data segment periodically
	}
	payload := mkPayload(512 << 10)
	got, c := transfer(t, k, a, b, payload, 120*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("corrupted transfer under loss (%d/%d bytes)", len(got), len(payload))
	}
	if c.st.mxFastRetransmits.Value() == 0 {
		t.Error("isolated losses never triggered fast retransmit")
	}
}

func TestRTORecoversFromTotalBlackout(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	blackout := true
	k.At(sim.Time(3*time.Second), func() { blackout = false })
	dropped := 0
	p.drop = func(seg Segment) bool {
		if blackout && len(seg.Payload) > 0 {
			dropped++
			return true
		}
		return false
	}
	payload := mkPayload(4 << 10)
	got, c := transfer(t, k, a, b, payload, 120*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("transfer corrupted after blackout")
	}
	if c.st.mxTimeouts.Value() == 0 {
		t.Error("blackout never triggered an RTO")
	}
	if dropped == 0 {
		t.Error("test broken: nothing dropped")
	}
}

func TestWindowScalingNegotiated(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	payload := mkPayload(256 << 10)
	_, c := transfer(t, k, a, b, payload, 60*time.Second)
	// With a 256 KiB receive buffer and scale 7, the peer's advertised
	// window must exceed the unscaled 64 KiB ceiling at some point; the
	// final window reflects scaling.
	if c.peerWndScale != wndScale {
		t.Errorf("peer window scale = %d, want %d", c.peerWndScale, wndScale)
	}
	if c.sndWnd <= 0xffff {
		t.Errorf("sndWnd = %d, scaling apparently unused", c.sndWnd)
	}
}

func TestConnectToClosedPortFails(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	_ = b
	var got error
	k.Spawn("client", func(p *sim.Proc) {
		pr := a.st.Connect(b.st.LocalIP, 81) // nothing listening
		a.s.Run(p, pr)
		got = pr.Failed()
	})
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got, ErrReset) {
		t.Errorf("connect error = %v, want ErrReset", got)
	}
}

func TestCloseHandshakeReachesClosedAndFreesConns(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	payload := mkPayload(1024)
	_, c := transfer(t, k, a, b, payload, 30*time.Second)
	// Let TIME_WAIT expire.
	if _, err := k.RunFor(2 * DefaultParams().TimeWait); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed {
		t.Errorf("client state = %v, want Closed", c.State())
	}
	if a.st.Conns() != 0 || b.st.Conns() != 0 {
		t.Errorf("conn tables not empty: a=%d b=%d", a.st.Conns(), b.st.Conns())
	}
}

func TestServerCanKeepSendingAfterClientClose(t *testing.T) {
	// Half-close: client sends FIN; server (CloseWait) still streams data.
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	tail := mkPayload(64 << 10)
	var got bytes.Buffer

	k.Spawn("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(7)
		main := lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
			// Wait for client FIN (EOF), then send the tail.
			return lwt.Bind(c.Read(1024), func(data []byte) *lwt.Promise[struct{}] {
				if len(data) != 0 {
					t.Errorf("expected immediate EOF, got %d bytes", len(data))
				}
				return lwt.Map(c.Write(tail), func(int) struct{} {
					c.Close()
					return struct{}{}
				})
			})
		})
		if err := b.s.Run(p, main); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 7), func(c *Conn) *lwt.Promise[struct{}] {
			c.Close() // half-close immediately
			var loop func() *lwt.Promise[struct{}]
			loop = func() *lwt.Promise[struct{}] {
				return lwt.Bind(c.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
					if len(data) == 0 {
						return lwt.Return(a.s, struct{}{})
					}
					got.Write(data)
					return loop()
				})
			}
			return loop()
		})
		if err := a.s.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), tail) {
		t.Fatalf("half-close tail corrupted: got %d bytes, want %d", got.Len(), len(tail))
	}
}

func TestCongestionWindowGrowsFromSlowStart(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, 5*time.Millisecond)
	payload := mkPayload(512 << 10)
	_, c := transfer(t, k, a, b, payload, 120*time.Second)
	mss := DefaultParams().MSS
	if c.cwnd <= initCwnd*mss {
		t.Errorf("cwnd = %d never grew past initial %d", c.cwnd, initCwnd*mss)
	}
}

func TestSegmentWireRoundTrip(t *testing.T) {
	src, dst := ipv4.AddrFrom4(1, 2, 3, 4), ipv4.AddrFrom4(5, 6, 7, 8)
	in := Segment{
		SrcPort: 1234, DstPort: 80,
		Seq: 0xDEADBEEF, Ack: 0xFEEDFACE,
		Flags: FlagSYN | FlagACK, Window: 4321,
		MSS: 1460, WndScale: 7,
		Payload: []byte("options and payload"),
	}
	v := cstructMake(2048)
	n := Encode(v, src, dst, in)
	out, err := Parse(src, dst, v.Sub(0, n))
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != in.SrcPort || out.DstPort != in.DstPort || out.Seq != in.Seq ||
		out.Ack != in.Ack || out.Flags != in.Flags || out.Window != in.Window ||
		out.MSS != in.MSS || out.WndScale != in.WndScale || !bytes.Equal(out.Payload, in.Payload) {
		t.Errorf("round trip mismatch: in=%+v out=%+v", in, out)
	}
}

// Every single-bit error anywhere in a segment — header, options, payload,
// the checksum field itself — is caught: a one-bit change moves the
// one's-complement sum by a power of two, never by a multiple of 0xffff.
func TestParseRejectsCorruptedChecksum(t *testing.T) {
	src, dst := ipv4.AddrFrom4(1, 2, 3, 4), ipv4.AddrFrom4(5, 6, 7, 8)
	for _, seg := range []Segment{
		{SrcPort: 1, DstPort: 2, WndScale: -1, Payload: []byte("x")},
		{SrcPort: 4000, DstPort: 80, Seq: 1 << 31, Flags: FlagSYN, MSS: 1460, WndScale: 7},
		{SrcPort: 4000, DstPort: 80, Seq: 77, Ack: 99, Flags: FlagACK | FlagPSH, Window: 0xffff, WndScale: -1, Payload: mkPayload(1460)},
	} {
		v := cstructMake(seg.WireLen())
		n := Encode(v, src, dst, seg)
		if _, err := Parse(src, dst, v.Sub(0, n)); err != nil {
			t.Fatalf("intact %d-byte segment rejected: %v", n, err)
		}
		for bit := 0; bit < 8*n; bit++ {
			v.PutU8(bit/8, v.U8(bit/8)^(1<<(bit%8)))
			if _, err := Parse(src, dst, v.Sub(0, n)); err == nil {
				t.Errorf("%d-byte segment with bit %d flipped parsed successfully", n, bit)
			}
			v.PutU8(bit/8, v.U8(bit/8)^(1<<(bit%8)))
		}
	}
}

// Property: for any payload size and any deterministic drop pattern that
// eventually lets segments through, the receiver observes exactly the sent
// byte stream.
func TestPropStreamIntegrityUnderLoss(t *testing.T) {
	f := func(sizeSeed uint16, dropMod uint8) bool {
		size := int(sizeSeed)%32768 + 1
		mod := int(dropMod)%7 + 3 // drop every (3..9)th data segment... once
		k := sim.NewKernel(int64(sizeSeed))
		a, b, p := newPair(k, time.Millisecond)
		n := 0
		p.drop = func(seg Segment) bool {
			if len(seg.Payload) == 0 {
				return false
			}
			n++
			return n%mod == 0 && n%(2*mod) != 0 // never the same seg twice in a row
		}
		payload := mkPayload(size)
		got, _ := transfer(t, k, a, b, payload, 10*time.Minute)
		return bytes.Equal(got, payload)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
