package tcp

import (
	"errors"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// queued reports what c's I/O part holds: segments in flight and bytes not
// yet segmented (none without a part).
func queued(c *Conn) (inflight, unsent int) {
	if c.io == nil {
		return 0, 0
	}
	return c.io.inflight.Len(), c.io.sendq.Len()
}

// TestConnCoreSize: the part of a connection it keeps for its whole life
// fits the 288 B size class, so a parked connection costs that and its
// pending Read, not the queues and timers of one doing I/O.
func TestConnCoreSize(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 288 {
		t.Errorf("Conn is %d B, want at most 288", n)
	}
}

// TestEstablishedClientHoldsNoConnectPromise: the handshake hands the
// Connect promise its connection and lets go of it, so a parked client
// does not keep the resolved promise for its whole life.
func TestEstablishedClientHoldsNoConnectPromise(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, _ := establish(t, k, a, b)
	if c.connectP != nil {
		t.Error("an established client connection still holds its Connect promise")
	}
}

// TestParkedConnHoldsNoIO: an established pair with a Read pending on the
// server holds no I/O part on either end once the handshake's timers have
// run; a Write takes one back on the client at once, the segment it sends
// takes one on the server, and both are handed back when the exchange is
// over, to be reused by the next exchange.
func TestParkedConnHoldsNoIO(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	c, srv := establish(t, k, a, b)
	var rd *lwt.Promise[[]byte]
	k.Spawn("park", func(p *sim.Proc) { rd = srv.Read(4096) })
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.io != nil || srv.io != nil || rd.Completed() {
		t.Fatalf("parked pair: client part %v, server part %v, read completed %v; want no parts and a pending read",
			c.io != nil, srv.io != nil, rd.Completed())
	}
	free := len(a.st.ioFree) + len(b.st.ioFree)
	if free == 0 {
		t.Fatal("the handshake's parts did not go back to the stacks")
	}

	k.Spawn("write", func(p *sim.Proc) {
		c.Write([]byte("ping"))
		if c.io == nil {
			t.Error("Write left the client without an I/O part")
		}
	})
	// The segment lands on the server 1 ms later and arms its delayed ACK.
	if _, err := k.RunFor(1500 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if srv.io == nil || !srv.io.delAckTimer.Pending() {
		t.Fatal("the arriving segment did not take an I/O part on the server")
	}
	if !rd.Completed() || string(rd.Value()) != "ping" {
		t.Fatal("the parked read did not get the segment's bytes")
	}
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if c.io != nil || srv.io != nil {
		t.Errorf("after the exchange: client part %v, server part %v; want both handed back", c.io != nil, srv.io != nil)
	}
	if got := len(a.st.ioFree) + len(b.st.ioFree); got != free {
		t.Errorf("%d free parts after the exchange, %d before: the exchange did not reuse them", got, free)
	}
}

// TestTornDownConn: on a connection torn down by a reset or by a completed
// close, Read, Write, Close and Abort answer as they always have — a failed
// or EOF read, a failed write, no segment sent — and none of them takes an
// I/O part back.
func TestTornDownConn(t *testing.T) {
	for _, tc := range []struct {
		name     string
		down     func(c, srv *Conn)
		readErr  error // nil: Read resolves at EOF
		writeErr string
	}{
		{"reset", func(c, srv *Conn) { c.Abort() }, ErrReset, ErrReset.Error()},
		{"closed", func(c, srv *Conn) {
			c.Close()
			lwt.Always(srv.Read(16), func() { srv.Close() })
		}, nil, "tcp: write after close"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			a, b, p := newPair(k, time.Millisecond)
			c, srv := establish(t, k, a, b)
			k.Spawn("down", func(*sim.Proc) { tc.down(c, srv) })
			if _, err := k.RunFor(2 * time.Second); err != nil { // past TIME_WAIT
				t.Fatal(err)
			}
			if c.State() != StateClosed || srv.State() != StateClosed {
				t.Fatalf("states %v / %v, want both Closed", c.State(), srv.State())
			}
			sent := p.Delivered
			var rd *lwt.Promise[[]byte]
			var wr *lwt.Promise[int]
			k.Spawn("calls", func(*sim.Proc) {
				rd = c.Read(16)
				wr = c.Write([]byte("late"))
				c.Close()
				c.Abort()
			})
			if _, err := k.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if !rd.Completed() || !errors.Is(rd.Failed(), tc.readErr) || (tc.readErr == nil && len(rd.Value()) != 0) {
				t.Errorf("Read: completed %v, err %v; want err %v", rd.Completed(), rd.Failed(), tc.readErr)
			}
			if err := wr.Failed(); err == nil || err.Error() != tc.writeErr {
				t.Errorf("Write: err %v, want %q", err, tc.writeErr)
			}
			if p.Delivered != sent {
				t.Errorf("calls on the torn-down connection sent %d segments", p.Delivered-sent)
			}
			if c.io != nil || c.State() != StateClosed {
				t.Errorf("torn-down connection: part %v, state %v", c.io != nil, c.State())
			}
			if a.st.Conns() != 0 || len(a.st.ioFree) != 0 {
				t.Errorf("client stack keeps %d conns, %d free parts; want none", a.st.Conns(), len(a.st.ioFree))
			}
		})
	}
}

// TestReleaseRefusesArmedPart: handing back a part whose timer or flush is
// still armed would let it fire for the part's next connection.
func TestReleaseRefusesArmedPart(t *testing.T) {
	k := sim.NewKernel(1)
	a, _, _ := newPair(k, time.Millisecond)
	c := newConn(a.st, connKey{localPort: 1, remotePort: 2})
	for _, arm := range []func(io *connIO){
		func(io *connIO) { a.st.wheel.Schedule(&io.rtoTimer, k.Now().Add(time.Second)) },
		func(io *connIO) { a.st.wheel.Schedule(&io.delAckTimer, k.Now().Add(time.Second)) },
		func(io *connIO) { a.st.wheel.Schedule(&io.persistTimer, k.Now().Add(time.Second)) },
		func(io *connIO) { io.sendAt.Arm(k, k.Now()) },
		func(io *connIO) { io.ackFlushAt.Arm(k, k.Now()) },
	} {
		io := a.st.getIO(c)
		arm(io)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("putIO took back a part with a timer or flush armed")
				}
			}()
			a.st.putIO(io)
		}()
	}
}

// TestFreeListFollowsLiveConns: the free list never holds more parts than
// the stack has live connections and listeners, so closing every
// connection hands the parts' memory back.
func TestFreeListFollowsLiveConns(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	const n = 20
	var conns []*Conn
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		var next func()
		next = func() {
			lwt.Map(l.Accept(), func(c *Conn) struct{} {
				lwt.Always(c.Read(16), c.Close)
				next()
				return struct{}{}
			})
		}
		next()
		b.s.Run(p, lwt.NewPromise[struct{}](b.s))
	})
	k.SpawnDaemon("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			lwt.Map(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) struct{} {
				conns = append(conns, c)
				c.Write([]byte("x"))
				return struct{}{}
			})
		}
		a.s.Run(p, lwt.NewPromise[struct{}](a.s))
	})
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(conns) != n {
		t.Fatalf("%d of %d connections established", len(conns), n)
	}
	check := func(when string) {
		for _, h := range []*host{a, b} {
			if keep := h.st.Conns() + len(h.st.listeners); len(h.st.ioFree) > keep {
				t.Errorf("%s: %d free parts for %d connections and listeners", when, len(h.st.ioFree), keep)
			}
		}
	}
	check("parked")
	k.Spawn("close", func(p *sim.Proc) {
		for _, c := range conns {
			c.Close()
		}
	})
	if _, err := k.RunFor(100 * time.Millisecond); err != nil { // short of TIME_WAIT
		t.Fatal(err)
	}
	check("in TIME_WAIT")
	if _, err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	check("closed")
	if a.st.Conns() != 0 || len(a.st.ioFree) != 0 || len(b.st.ioFree) > 1 {
		t.Errorf("after the close: client %d conns / %d free parts, server %d free parts; want 0 / 0 and at most the listener's one",
			a.st.Conns(), len(a.st.ioFree), len(b.st.ioFree))
	}
}

// TestReusedPartTakesItsConnsKey: a part taken from the free list orders its
// timers by its new connection's 4-tuple, not by its last one's, so timers
// due at one instant fire in peer order however the parts were reused.
func TestReusedPartTakesItsConnsKey(t *testing.T) {
	k := sim.NewKernel(1)
	st := NewStack(lwt.NewScheduler(k), ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	var acks []uint16
	st.Output = func(_ ipv4.Addr, seg Segment) { acks = append(acks, seg.SrcPort) }
	conn := func(port uint16) *Conn {
		c := newConn(st, connKey{localPort: port, remotePort: 80})
		c.state = StateEstablished
		st.conns[c.key] = c
		return c
	}
	lo, mid, hi := conn(1), conn(2), conn(3)
	hi.use()
	hi.settle() // hi's part goes to the free list
	lo.use()    // and comes back for lo
	mid.use()   // a new part
	mid.scheduleDelayedAck()
	lo.scheduleDelayedAck() // the same deadline, scheduled second
	if _, err := k.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if want := []uint16{1, 2}; !slices.Equal(acks, want) {
		t.Errorf("delayed ACKs from ports %v, want %v: the reused part kept its last connection's key", acks, want)
	}
}
