package tcp

// Tests for the million-connection scalability batch: SYN cookies, the
// ephemeral-port allocator bound, TIME_WAIT buffer release, and the
// O(backlog) listener close.

import (
	"sort"
	"testing"
	"time"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// TestCookieEncodeDecode: the cookie ISN round-trips the peer options it
// encodes, survives one epoch rollover, and rejects forgeries.
func TestCookieEncodeDecode(t *testing.T) {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	st := NewStack(s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	src := ipv4.AddrFrom4(10, 0, 0, 9)

	cases := []struct {
		offerMSS int
		wscale   int
		wantMSS  int
		wantWS   int
	}{
		{1460, 7, 1460, 7},
		{1460, -1, 1460, -1}, // no window scaling offered
		{536, 0, 536, 0},
		{100, 3, 536, 3}, // below the smallest bucket: clamps up
		{9000, 14, 8960, 14},
		{1448, 7, 1440, 7}, // rounds down to the nearest bucket
	}
	for _, tc := range cases {
		syn := Segment{
			SrcPort: 2000, DstPort: 80, Seq: 777,
			Flags: FlagSYN, MSS: uint16(tc.offerMSS), WndScale: tc.wscale,
		}
		cookie := st.encodeCookie(src, syn)
		mss, ws, ok := st.decodeCookie(src, 2000, 80, 777, cookie)
		if !ok {
			t.Fatalf("offer mss=%d ws=%d: cookie did not validate", tc.offerMSS, tc.wscale)
		}
		if mss != tc.wantMSS || ws != tc.wantWS {
			t.Errorf("offer mss=%d ws=%d: decoded (%d, %d), want (%d, %d)",
				tc.offerMSS, tc.wscale, mss, ws, tc.wantMSS, tc.wantWS)
		}
		// Any perturbation of tuple, client ISN or options must fail.
		if _, _, ok := st.decodeCookie(src, 2001, 80, 777, cookie); ok {
			t.Error("cookie validated for the wrong source port")
		}
		if _, _, ok := st.decodeCookie(src, 2000, 80, 778, cookie); ok {
			t.Error("cookie validated for the wrong client ISN")
		}
		if _, _, ok := st.decodeCookie(src, 2000, 80, 777, cookie^0x20); ok {
			t.Error("cookie validated with forged options byte")
		}
	}

	// A cookie minted now stays valid through the next epoch but not the one
	// after (replay bound).
	syn := Segment{SrcPort: 2000, DstPort: 80, Seq: 42, Flags: FlagSYN, MSS: 1460, WndScale: 7}
	cookie := st.encodeCookie(src, syn)
	hop := func(d time.Duration) {
		k.Spawn("idle", func(p *sim.Proc) {})
		if _, err := k.RunFor(d); err != nil {
			t.Fatal(err)
		}
	}
	hop(cookieEpoch)
	if _, _, ok := st.decodeCookie(src, 2000, 80, 42, cookie); !ok {
		t.Error("cookie expired after one epoch; previous epoch must stay valid")
	}
	hop(cookieEpoch)
	if _, _, ok := st.decodeCookie(src, 2000, 80, 42, cookie); ok {
		t.Error("cookie still valid two epochs later")
	}
}

// TestSynCookieFloodUnderLoss: with a backlog of 2 and twenty concurrent
// connects through a lossy pipe, every handshake still completes — the
// overflow SYNs are answered with stateless cookies, retransmissions mint
// fresh ones, and the half-open table never grows past the cap.
func TestSynCookieFloodUnderLoss(t *testing.T) {
	const nConns = 20
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	b.st.Params.SynBacklog = 2

	// Deterministic ~5% loss on every segment class, both directions.
	n := 0
	p.drop = func(seg Segment) bool {
		n++
		return n%20 == 7
	}

	accepted, gotBytes := 0, 0
	k.SpawnDaemon("server", func(pr *sim.Proc) {
		l, _ := b.st.Listen(80)
		var loop func() *lwt.Promise[struct{}]
		loop = func() *lwt.Promise[struct{}] {
			return lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
				accepted++
				lwt.Map(c.Read(16), func(data []byte) struct{} {
					gotBytes += len(data)
					return struct{}{}
				})
				return loop()
			})
		}
		b.s.Run(pr, loop())
	})
	established := 0
	k.SpawnDaemon("clients", func(pr *sim.Proc) {
		prs := make([]*lwt.Promise[*Conn], nConns)
		for i := range prs {
			prs[i] = a.st.Connect(b.st.LocalIP, 80)
		}
		var wait func(i int) *lwt.Promise[struct{}]
		wait = func(i int) *lwt.Promise[struct{}] {
			if i == len(prs) {
				return lwt.Return(a.s, struct{}{})
			}
			return lwt.Bind(prs[i], func(c *Conn) *lwt.Promise[struct{}] {
				established++
				// One data byte per connection: if the handshake-completing
				// ACK of a cookie connection is lost, only retransmitted data
				// can materialise it server-side (cookies keep no state to
				// retransmit from).
				return lwt.Bind(c.Write([]byte{byte(i)}), func(int) *lwt.Promise[struct{}] {
					return wait(i + 1)
				})
			})
		}
		if err := a.s.Run(pr, wait(0)); err != nil {
			t.Errorf("connect failed under cookie flood: %v", err)
		}
	})
	if _, err := k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if established != nConns || accepted != nConns {
		t.Fatalf("established %d, accepted %d, want %d each", established, accepted, nConns)
	}
	if gotBytes != nConns {
		t.Fatalf("server read %d bytes, want %d", gotBytes, nConns)
	}
	if p.Dropped == 0 {
		t.Fatal("no segments dropped; loss model exercised nothing")
	}
	if got := b.st.mxCookiesSent.Value(); got == 0 {
		t.Error("no cookie SYN|ACKs sent; backlog cap never overflowed")
	}
	if got := b.st.mxCookiesValid.Value(); got == 0 {
		t.Error("no cookies validated; every handshake went the stateful path")
	}
	if hw := b.st.listeners; hw != nil {
		// The listener is still open; its half-open set must respect the cap.
		if l := hw[80]; l != nil && l.HalfOpen() > b.st.Params.SynBacklog {
			t.Errorf("HalfOpen() = %d, exceeds backlog %d", l.HalfOpen(), b.st.Params.SynBacklog)
		}
	}
	if got := b.st.Conns(); got != nConns {
		t.Errorf("server conn table has %d entries, want %d", got, nConns)
	}
}

// TestCookieHandshakeCarriesData: a cookie connection negotiated under
// overflow still moves data correctly in both directions (MSS and window
// scale recovered from the cookie, not from kept state).
func TestCookieHandshakeCarriesData(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	b.st.Params.SynBacklog = 1

	var echoed []byte
	k.Spawn("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		// Wedge the backlog with a half-open handshake from a silent third
		// host: its SYN|ACK goes nowhere, so the listener's only backlog slot
		// stays occupied and the real client is forced onto the cookie path.
		b.st.Input(ipv4.AddrFrom4(10, 0, 0, 77), Segment{
			SrcPort: 3000, DstPort: 80, Seq: 1, Flags: FlagSYN,
			Window: 65535, MSS: 1460, WndScale: -1,
		})
		const want = 96 << 10
		main := lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
			var buf []byte
			var slurp func() *lwt.Promise[struct{}]
			slurp = func() *lwt.Promise[struct{}] {
				return lwt.Bind(c.Read(1<<20), func(data []byte) *lwt.Promise[struct{}] {
					buf = append(buf, data...)
					if len(buf) < want && len(data) > 0 {
						return slurp()
					}
					return lwt.Bind(c.Write(buf), func(int) *lwt.Promise[struct{}] {
						c.Close()
						return c.Done()
					})
				})
			}
			return slurp()
		})
		if err := b.s.Run(p, main); err != nil {
			t.Errorf("server: %v", err)
		}
	})
	payload := mkPayload(96 << 10) // several windows' worth
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
				var read func(got int) *lwt.Promise[struct{}]
				read = func(got int) *lwt.Promise[struct{}] {
					return lwt.Bind(c.Read(1<<20), func(data []byte) *lwt.Promise[struct{}] {
						echoed = append(echoed, data...)
						if len(echoed) < len(payload) && len(data) > 0 {
							return read(got + len(data))
						}
						c.Close()
						return c.Done()
					})
				}
				return read(0)
			})
		})
		if err := a.s.Run(p, main); err != nil {
			t.Errorf("client: %v", err)
		}
	})
	if _, err := k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if b.st.mxCookiesValid.Value() != 1 {
		t.Fatalf("tcp_syncookies_validated_total = %d, want 1 (client must take the cookie path)",
			b.st.mxCookiesValid.Value())
	}
	if len(echoed) != len(payload) {
		t.Fatalf("echoed %d bytes, want %d", len(echoed), len(payload))
	}
	for i := range payload {
		if echoed[i] != payload[i] {
			t.Fatalf("echo corrupted at byte %d", i)
		}
	}
}

// TestEphemeralPortExhaustion: the allocator gives up after one lap of the
// actual dynamic range (16384 ports) instead of spinning 65536 times, fails
// the connect promise immediately, and counts the event.
func TestEphemeralPortExhaustion(t *testing.T) {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	st := NewStack(s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	st.Output = func(ipv4.Addr, Segment) {} // destination never answers
	dst := ipv4.AddrFrom4(10, 0, 0, 2)

	var exhaustedErr error
	k.Spawn("fill", func(p *sim.Proc) {
		for i := 0; i < ephemRange; i++ {
			st.Connect(dst, 80)
		}
		if st.Conns() != ephemRange {
			t.Errorf("conn table has %d entries after filling the range, want %d",
				st.Conns(), ephemRange)
		}
		pr := st.Connect(dst, 80)
		if !pr.Completed() {
			t.Error("connect past port exhaustion did not fail immediately")
			return
		}
		exhaustedErr = pr.Failed()
	})
	if _, err := k.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if exhaustedErr == nil {
		t.Fatal("connect succeeded with every ephemeral port in use")
	}
	if st.mxPortsExhausted.Value() != 1 {
		t.Errorf("tcp_ports_exhausted_total = %d, want 1", st.mxPortsExhausted.Value())
	}
}

// TestPortReuseAfterTimeWait: a port pinned by a TIME_WAIT connection frees
// once the 2MSL timer (riding the wheel) expires, and the allocator hands
// it out again.
func TestPortReuseAfterTimeWait(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, srv := establish(t, k, a, b)
	port := c.key.localPort

	// Active close from the client: it lands in TIME_WAIT holding the port.
	k.Spawn("close", func(p *sim.Proc) {
		c.Close()
		srv.Close()
	})
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TimeWait", c.State())
	}

	// Rewind the allocator so the next connect would pick the same port: it
	// must skip the TIME_WAIT entry, not collide with it.
	a.st.nextEphem = port - 1
	var second *Conn
	k.Spawn("reconnect-early", func(p *sim.Proc) {
		lwt.Map(a.st.Connect(b.st.LocalIP, 80), func(c2 *Conn) struct{} {
			second = c2
			return struct{}{}
		})
	})
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if second == nil {
		t.Fatal("reconnect during TIME_WAIT never established")
	}
	if second.key.localPort == port {
		t.Fatalf("allocator reused port %d while it was in TIME_WAIT", port)
	}

	// After 2MSL the wheel timer reaps the conn and the port is free again.
	if _, err := k.RunFor(a.st.Params.TimeWait + time.Second); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateClosed {
		t.Fatalf("TIME_WAIT never expired: state %v", c.State())
	}
	a.st.nextEphem = port - 1
	var third *Conn
	k.Spawn("reconnect", func(p *sim.Proc) {
		lwt.Map(a.st.Connect(b.st.LocalIP, 80), func(c3 *Conn) struct{} {
			third = c3
			return struct{}{}
		})
	})
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if third == nil {
		t.Fatal("reconnect after TIME_WAIT expiry never established")
	}
	if third.key.localPort != port {
		t.Fatalf("expired port %d not reused: got %d", port, third.key.localPort)
	}
}

// TestTimeWaitReleasesBuffers: a connection parked in TIME_WAIT must not
// pin its send buffer, retransmission queue or reassembly map — at a
// million parked connections those are the difference between kilobytes
// and gigabytes. It keeps its I/O part, whose RTO timer counts the 2MSL
// wait, with every queue drained: the queues' arrays stay, empty, for the
// part's next connection.
func TestTimeWaitReleasesBuffers(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, srv := establish(t, k, a, b)

	k.Spawn("traffic", func(p *sim.Proc) {
		// Leave unread data on both sides so buffers are non-trivially full,
		// then actively close from the client.
		lwt.Map(c.Write(mkPayload(32<<10)), func(int) struct{} {
			c.Close()
			return struct{}{}
		})
	})
	k.Spawn("server-close", func(p *sim.Proc) {
		lwt.Bind(srv.Read(64<<10), func([]byte) *lwt.Promise[struct{}] {
			srv.Close()
			return srv.Done()
		})
	})
	// Short of the 500ms TIME_WAIT duration: the conn must still be parked.
	if _, err := k.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateTimeWait {
		t.Fatalf("client state = %v, want TimeWait", c.State())
	}
	io := c.io
	if io == nil || !io.rtoTimer.Pending() {
		t.Fatal("TIME_WAIT connection holds no I/O part with its 2MSL timer armed")
	}
	if io.sendq.chunks.Len() != 0 || io.sendq.Len() != 0 || io.inflight.Len() != 0 || len(io.ooo) != 0 {
		t.Errorf("TIME_WAIT retains buffers: send queue %d chunks / %d bytes, inflight=%d, ooo=%d",
			io.sendq.chunks.Len(), io.sendq.Len(), io.inflight.Len(), len(io.ooo))
	}
}

// TestListenerCloseUnderFlood: closing a listener holding a full half-open
// backlog resets exactly those handshakes, in deterministic peer order —
// the regression guard for the close path that used to scan the stack's
// whole connection table.
func TestListenerCloseUnderFlood(t *testing.T) {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	st := NewStack(s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	st.Params.SynBacklog = 64
	st.Params.SynCookies = false // keep overflow SYNs out of the picture
	var rsts []Segment
	st.Output = func(dst ipv4.Addr, seg Segment) {
		if seg.Flags&FlagRST != 0 {
			rsts = append(rsts, seg)
		}
	}

	// Unrelated established-ish connections that must survive the close.
	k.Spawn("others", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			st.Connect(ipv4.AddrFrom4(10, 9, 9, byte(i+1)), 443)
		}
	})
	var l *Listener
	k.Spawn("flood", func(p *sim.Proc) {
		l, _ = st.Listen(80)
		// Flood from descending addresses so insertion order is the reverse
		// of the required RST order.
		for i := 200; i > 0; i-- {
			st.Input(ipv4.AddrFrom4(10, 0, 1, byte(i)), Segment{
				SrcPort: uint16(4000 + i), DstPort: 80,
				Seq: uint32(i), Flags: FlagSYN,
				Window: 65535, MSS: 1460, WndScale: -1,
			})
		}
	})
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if l.HalfOpen() != 64 {
		t.Fatalf("HalfOpen() = %d, want 64", l.HalfOpen())
	}
	rsts = nil // ignore handshake traffic; watch only the close
	k.Spawn("close", func(p *sim.Proc) { l.Close() })
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(rsts) != 64 {
		t.Fatalf("close emitted %d RSTs, want exactly the 64 half-open handshakes", len(rsts))
	}
	if !sort.SliceIsSorted(rsts, func(i, j int) bool {
		return rsts[i].DstPort < rsts[j].DstPort
	}) {
		t.Error("close RSTs not in deterministic peer order")
	}
	if l.HalfOpen() != 0 {
		t.Errorf("HalfOpen() = %d after close, want 0", l.HalfOpen())
	}
	if got := st.Conns(); got != 8 {
		t.Errorf("conn table has %d entries after close, want the 8 unrelated connects", got)
	}
}
