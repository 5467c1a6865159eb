package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// TestHandshakeSurvivesDroppedSynAck: losing the SYN|ACK must not wedge the
// handshake — the server retransmits it on RTO and the transfer completes.
func TestHandshakeSurvivesDroppedSynAck(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	dropped := false
	p.drop = func(seg Segment) bool {
		if !dropped && seg.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK {
			dropped = true
			return true
		}
		return false
	}
	payload := mkPayload(64 << 10)
	got, _ := transfer(t, k, a, b, payload, 60*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %d bytes, want %d", len(got), len(payload))
	}
	if p.Dropped != 1 {
		t.Errorf("dropped %d segments, want exactly the SYN|ACK", p.Dropped)
	}
}

// TestCloseSurvivesDroppedFin: losing the client's FIN must not leave the
// server waiting for EOF forever; RTO retransmits the FIN.
func TestCloseSurvivesDroppedFin(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	dropped := false
	p.drop = func(seg Segment) bool {
		if !dropped && seg.DstPort == 5001 && seg.Flags&FlagFIN != 0 {
			dropped = true
			return true
		}
		return false
	}
	payload := mkPayload(64 << 10)
	got, c := transfer(t, k, a, b, payload, 60*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %d bytes, want %d", len(got), len(payload))
	}
	if !dropped {
		t.Fatal("FIN was never dropped; test exercised nothing")
	}
	if c.st.mxRetransmits.Value() == 0 {
		t.Error("client never retransmitted its lost FIN")
	}
}

// TestPersistTimerRecoversDroppedWindowUpdate is the regression test for
// the zero-window deadlock: the receiver's window closes, the sender
// drains its flight and stalls, and the window-update ACK that would have
// restarted it is lost. Without the RFC 1122 §4.2.2.17 persist timer the
// connection deadlocks forever; with it, a probe elicits a fresh window
// advertisement and the transfer completes.
func TestPersistTimerRecoversDroppedWindowUpdate(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	// A small receive buffer closes the window quickly.
	b.st.Params.RcvBuf = 16 << 10
	payload := mkPayload(48 << 10)

	sawZeroWnd, droppedUpdate := false, false
	p.drop = func(seg Segment) bool {
		// Watch server->client pure ACKs: once the window has been
		// advertised as zero, swallow the single ACK that reopens it.
		if seg.SrcPort != 80 || len(seg.Payload) != 0 || seg.Flags&(FlagSYN|FlagFIN|FlagRST) != 0 {
			return false
		}
		if seg.Window == 0 {
			sawZeroWnd = true
			return false
		}
		if sawZeroWnd && !droppedUpdate {
			droppedUpdate = true
			return true
		}
		return false
	}

	var srvConn *Conn
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		lwt.Map(l.Accept(), func(c *Conn) struct{} {
			srvConn = c
			return struct{}{}
		})
		b.s.Run(p, lwt.NewPromise[struct{}](b.s)) // hold timers; don't read yet
	})
	var clientConn *Conn
	sent := false
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			clientConn = c
			return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
				sent = true
				c.Close()
				return c.Done() // stay alive: timers die with main (§3.3)
			})
		})
		a.s.Run(p, main)
	})
	// Let the window close and the sender stall against it.
	if _, err := k.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if srvConn == nil || clientConn == nil {
		t.Fatal("connection never established")
	}
	if srvConn.rcvLen >= len(payload) { // nothing has read yet
		t.Fatal("window never closed; scenario did not stall")
	}
	// Drain the receiver. Its window-update ACK is the one we drop.
	var drained bytes.Buffer
	k.Spawn("drainer", func(p *sim.Proc) {
		var loop func() *lwt.Promise[struct{}]
		loop = func() *lwt.Promise[struct{}] {
			return lwt.Bind(srvConn.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
				if len(data) == 0 {
					srvConn.Close()
					return srvConn.Done()
				}
				drained.Write(data)
				return loop()
			})
		}
		b.s.Run(p, loop())
	})
	if _, err := k.RunFor(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !droppedUpdate {
		t.Fatal("window-update ACK was never dropped; test exercised nothing")
	}
	if !sent || drained.Len() < len(payload) {
		t.Fatalf("transfer wedged: sent=%v drained=%d/%d — persist timer failed",
			sent, drained.Len(), len(payload))
	}
	if !bytes.Equal(drained.Bytes(), payload) {
		t.Fatal("drained data corrupted")
	}
	if a.st.mxPersistProbes.Value() == 0 {
		t.Error("sender recovered without persist probes; test lost its teeth")
	}
}

// TestDuplicatedDataSegmentHarmless: the bridge duplicating data segments
// must not corrupt the stream or confuse recovery.
func TestDuplicatedDataSegmentHarmless(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	n := 0
	p.dup = func(seg Segment) bool {
		if len(seg.Payload) == 0 {
			return false
		}
		n++
		return n%20 == 10
	}
	payload := mkPayload(256 << 10)
	got, _ := transfer(t, k, a, b, payload, 60*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("received %d bytes, corrupted under duplication (want %d)", len(got), len(payload))
	}
	if p.Duplicated == 0 {
		t.Fatal("no segments duplicated; test exercised nothing")
	}
}

// establish opens one connection a->b:80 and returns both ends.
func establish(t *testing.T, k *sim.Kernel, a, b *host) (client, server *Conn) {
	t.Helper()
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		lwt.Map(l.Accept(), func(c *Conn) struct{} {
			server = c
			return struct{}{}
		})
		b.s.Run(p, lwt.NewPromise[struct{}](b.s))
	})
	k.SpawnDaemon("client", func(p *sim.Proc) {
		lwt.Map(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) struct{} {
			client = c
			return struct{}{}
		})
		a.s.Run(p, lwt.NewPromise[struct{}](a.s))
	})
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if client == nil || server == nil {
		t.Fatal("connection never established")
	}
	return client, server
}

// TestStaleAckCannotShrinkWindow: a reordered old ACK carrying a smaller
// window must be ignored by the SND.WL1/SND.WL2 check (RFC 793 p.72).
func TestStaleAckCannotShrinkWindow(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, _ := establish(t, k, a, b)

	before := c.sndWnd
	k.Spawn("inject", func(p *sim.Proc) {
		// Stale: its sequence number predates the segment that last
		// updated the window.
		a.st.Input(b.st.LocalIP, Segment{
			SrcPort: 80, DstPort: c.key.localPort,
			Seq: c.sndWL1 - 1, Ack: c.sndUna,
			Flags: FlagACK, Window: 1, WndScale: -1,
		})
	})
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if c.sndWnd != before {
		t.Fatalf("stale ACK shrank sndWnd %d -> %d", before, c.sndWnd)
	}

	// A current segment still updates the window (scaled by the peer's
	// negotiated shift).
	k.Spawn("inject2", func(p *sim.Proc) {
		a.st.Input(b.st.LocalIP, Segment{
			SrcPort: 80, DstPort: c.key.localPort,
			Seq: c.rcvNxt, Ack: c.sndUna,
			Flags: FlagACK, Window: 2, WndScale: -1,
		})
	})
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	scale := 0
	if c.peerWndScale > 0 {
		scale = c.peerWndScale
	}
	if want := 2 << uint(scale); c.sndWnd != want {
		t.Fatalf("fresh window update ignored: sndWnd = %d, want %d", c.sndWnd, want)
	}
}

// TestRstValidation: RFC 5961 §3.2 — only an exactly-in-sequence RST tears
// the connection down; an in-window RST elicits a challenge ACK; anything
// else is dropped and counted.
func TestRstValidation(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, _ := establish(t, k, a, b)

	rst := func(seq uint32) {
		k.Spawn("inject-rst", func(p *sim.Proc) {
			a.st.Input(b.st.LocalIP, Segment{
				SrcPort: 80, DstPort: c.key.localPort,
				Seq: seq, Flags: FlagRST, WndScale: -1,
			})
		})
		if _, err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Blind RST far behind the window: dropped.
	rst(c.rcvNxt - 100_000)
	if c.State() != StateEstablished {
		t.Fatalf("out-of-window RST reset the connection (state %v)", c.State())
	}
	if got := a.st.mxRstsRejected.Value(); got != 1 {
		t.Fatalf("tcp_rsts_rejected_total = %d, want 1", got)
	}

	// In-window but not exact: rejected with a challenge ACK.
	rst(c.rcvNxt + 1000)
	if c.State() != StateEstablished {
		t.Fatalf("in-window RST reset the connection (state %v)", c.State())
	}
	if got := a.st.mxRstsRejected.Value(); got != 2 {
		t.Fatalf("tcp_rsts_rejected_total = %d, want 2", got)
	}

	// Exact sequence: legitimate reset.
	rst(c.rcvNxt)
	if c.State() != StateClosed || !errors.Is(c.err, ErrReset) {
		t.Fatalf("exact-sequence RST did not reset (state %v, err %v)", c.State(), c.err)
	}
}

// TestSynBacklogCapAndListenerClose: a SYN flood cannot grow the half-open
// table past Params.SynBacklog, and Listener.Close fails waiters and
// reclaims every half-open connection.
func TestSynBacklogCapAndListenerClose(t *testing.T) {
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	st := NewStack(s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	st.Params.SynBacklog = 4
	st.Params.SynCookies = false            // this test pins the plain drop path
	st.Output = func(ipv4.Addr, Segment) {} // flood sources never answer
	rx := k.NewSignal("rx")
	s.OnSignal(rx, func() {})

	var l *Listener
	var acceptErr error
	k.SpawnDaemon("victim", func(p *sim.Proc) {
		l, _ = st.Listen(80)
		acceptErr = s.Run(p, l.Accept())
	})
	k.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			st.Input(ipv4.AddrFrom4(10, 0, 0, byte(100+i)), Segment{
				SrcPort: 2000, DstPort: 80,
				Seq: uint32(i * 1000), Flags: FlagSYN,
				Window: 65535, MSS: 1460, WndScale: -1,
			})
		}
		rx.Set() // wake the victim so it starts pumping the stack's timers
	})
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if l.HalfOpen() != 4 {
		t.Errorf("HalfOpen() = %d, want 4", l.HalfOpen())
	}
	if st.Conns() != 4 {
		t.Errorf("conn table has %d entries, want 4", st.Conns())
	}
	if st.mxSynDrops.Value() != 6 {
		t.Errorf("tcp_syn_backlog_drops_total = %d, want 6", st.mxSynDrops.Value())
	}

	// Closing the listener frees everything and fails the pending Accept
	// (the victim notices at its next timer wake).
	k.Spawn("close", func(p *sim.Proc) { l.Close() })
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(acceptErr, ErrListenerClosed) {
		t.Errorf("pending Accept error = %v, want ErrListenerClosed", acceptErr)
	}
	if st.Conns() != 0 {
		t.Errorf("conn table not reclaimed after Close: %d entries", st.Conns())
	}
	if l.HalfOpen() != 0 {
		t.Errorf("HalfOpen() = %d after Close, want 0", l.HalfOpen())
	}
}
