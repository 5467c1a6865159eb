package tcp

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/lwt"
	"repro/internal/sim"
)

// TestFlowControlZeroWindow: a receiver that never reads closes its
// advertised window; the sender must stall rather than overrun, then
// resume when the application drains.
func TestFlowControlZeroWindow(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	params := DefaultParams()
	payload := mkPayload(params.RcvBuf * 2) // twice the receive buffer

	var conn *Conn
	accepted := lwt.NewPromise[struct{}](b.s)
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		lwt.Map(l.Accept(), func(c *Conn) struct{} {
			conn = c
			accepted.Resolve(struct{}{})
			return struct{}{}
		})
		b.s.Run(p, lwt.NewPromise[struct{}](b.s)) // keep timers alive; never read
	})
	var wrote bool
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			return lwt.Map(c.Write(payload), func(int) struct{} {
				wrote = true
				return struct{}{}
			})
		})
		a.s.Run(p, main)
	})
	if _, err := k.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if conn == nil {
		t.Fatal("never accepted")
	}
	// The receiver's window closed at RcvBuf: it must not have been made
	// to buffer more than it advertised, and the sender must be stalled
	// with undelivered data (Write resolves on buffering, so it may have
	// completed — delivery is what flow control bounds).
	if got := conn.rcvLen; got > params.RcvBuf+params.MSS {
		t.Fatalf("receiver buffered %d bytes, beyond its advertised window", got)
	}
	if conn.rcvLen >= len(payload) { // nothing has read yet
		t.Fatal("all data delivered despite a closed window; flow control broken")
	}
	_ = wrote
	// Now drain on the receiver; the window reopens and the write finishes.
	var drained bytes.Buffer
	k.Spawn("drainer", func(p *sim.Proc) {
		var loop func() *lwt.Promise[struct{}]
		loop = func() *lwt.Promise[struct{}] {
			return lwt.Bind(conn.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
				drained.Write(data)
				if drained.Len() >= len(payload) {
					return lwt.Return(b.s, struct{}{})
				}
				return loop()
			})
		}
		b.s.Run(p, loop())
	})
	if _, err := k.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !wrote {
		t.Fatal("write never completed after drain")
	}
	if !bytes.Equal(drained.Bytes(), payload) {
		t.Fatalf("drained %d bytes, corrupted (want %d)", drained.Len(), len(payload))
	}
}

// TestSimultaneousClose: both ends close at once; FIN crossing puts both
// into CLOSING -> TIME_WAIT -> Closed.
func TestSimultaneousClose(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	var ca, cb *Conn
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		main := lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
			cb = c
			return c.Done()
		})
		b.s.Run(p, main)
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			ca = c
			// Let the server's accept land (its final-ACK processing
			// trails the client's connect by one link delay), then
			// close both ends at the same instant so the FINs cross.
			return lwt.Bind(a.s.Sleep(100*time.Millisecond), func(struct{}) *lwt.Promise[struct{}] {
				c.Close()
				cb.Close()
				return c.Done()
			})
		})
		a.s.Run(p, main)
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ca.State() != StateClosed {
		t.Errorf("client state = %v, want Closed", ca.State())
	}
	if cb.State() != StateClosed && cb.State() != StateTimeWait {
		t.Errorf("server state = %v, want Closed/TimeWait", cb.State())
	}
	if a.st.Conns() != 0 {
		t.Errorf("client conn table not empty: %d", a.st.Conns())
	}
}

// TestRSTMidTransferFailsPendingIO: a reset tears down the connection and
// fails outstanding reads and writes with ErrReset.
func TestRSTMidTransferFailsPendingIO(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	var readErr, writeErr error
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		lwt.Map(l.Accept(), func(c *Conn) struct{} {
			// Abort after a moment.
			lwt.Map(b.s.Sleep(500*time.Millisecond), func(struct{}) struct{} {
				c.Abort()
				return struct{}{}
			})
			return struct{}{}
		})
		b.s.Run(p, lwt.NewPromise[struct{}](b.s))
	})
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			done := lwt.NewPromise[struct{}](a.s)
			rd := c.Read(1024)
			lwt.Always(rd, func() {
				readErr = rd.Failed()
				// A write after teardown must also fail.
				wr := c.Write([]byte("too late"))
				lwt.Always(wr, func() {
					writeErr = wr.Failed()
					done.Resolve(struct{}{})
				})
			})
			return done
		})
		a.s.Run(p, main)
	})
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(readErr, ErrReset) {
		t.Errorf("pending read error = %v, want ErrReset", readErr)
	}
	if writeErr == nil {
		t.Error("write after reset succeeded")
	}
}

// TestListenerCloseStopsNewConnections but leaves established ones alone.
func TestListenerCloseStopsNewConnections(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, _ := newPair(k, time.Millisecond)
	var got string
	k.SpawnDaemon("server", func(p *sim.Proc) {
		l, _ := b.st.Listen(80)
		lwt.Bind(l.Accept(), func(c *Conn) *lwt.Promise[struct{}] {
			l.Close()
			return lwt.Map(c.Read(64), func(data []byte) struct{} {
				got = string(data)
				return struct{}{}
			})
		})
		b.s.Run(p, lwt.NewPromise[struct{}](b.s))
	})
	var second error
	k.Spawn("client", func(p *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c1 *Conn) *lwt.Promise[struct{}] {
			pr := a.st.Connect(b.st.LocalIP, 80) // listener now closed
			done := lwt.NewPromise[struct{}](a.s)
			lwt.Always(pr, func() {
				second = pr.Failed()
				// First connection still works.
				lwt.Map(c1.Write([]byte("still alive")), func(int) struct{} {
					done.Resolve(struct{}{})
					return struct{}{}
				})
			})
			return done
		})
		a.s.Run(p, main)
	})
	if _, err := k.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if second == nil {
		t.Error("connect after listener close succeeded")
	}
	if got != "still alive" {
		t.Errorf("established connection read %q, want \"still alive\"", got)
	}
}

// TestRetransmitQueueDrainsAfterRecovery: stats sanity across a lossy
// transfer — everything retransmitted is eventually acked and the inflight
// queue empties.
func TestRetransmitQueueDrainsAfterRecovery(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, p := newPair(k, time.Millisecond)
	n := 0
	p.drop = func(seg Segment) bool {
		if len(seg.Payload) == 0 {
			return false
		}
		n++
		return n%17 == 5
	}
	payload := mkPayload(256 << 10)
	got, c := transfer(t, k, a, b, payload, 5*time.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
	if inflight, unsent := queued(c); inflight != 0 || unsent != 0 {
		t.Errorf("sender left %d inflight segs, %d buffered bytes", inflight, unsent)
	}
	if c.st.mxRetransmits.Value() == 0 {
		t.Error("lossy link produced no retransmissions")
	}
}

// TestSameInstantWritesCoalesce: a burst of small writes issued in one
// wakeup is merged into MSS-sized segments (§3.4.1 write coalescing)
// instead of one undersized segment per write.
func TestSameInstantWritesCoalesce(t *testing.T) {
	k := sim.NewKernel(1)
	a, b, p := newPair(k, time.Millisecond)
	dataSegs := 0
	p.drop = func(seg Segment) bool {
		if len(seg.Payload) > 0 {
			dataSegs++
		}
		return false
	}
	const writes, each = 20, 100
	var got bytes.Buffer
	k.SpawnDaemon("server", func(sp *sim.Proc) {
		l, _ := b.st.Listen(80)
		var loop func(c *Conn) *lwt.Promise[struct{}]
		loop = func(c *Conn) *lwt.Promise[struct{}] {
			return lwt.Bind(c.Read(64<<10), func(data []byte) *lwt.Promise[struct{}] {
				got.Write(data)
				if got.Len() >= writes*each {
					return lwt.Return(b.s, struct{}{})
				}
				return loop(c)
			})
		}
		b.s.Run(sp, lwt.Bind(l.Accept(), loop))
	})
	k.Spawn("client", func(cp *sim.Proc) {
		main := lwt.Bind(a.st.Connect(b.st.LocalIP, 80), func(c *Conn) *lwt.Promise[struct{}] {
			ws := make([]lwt.Waiter, writes)
			for i := range ws {
				ws[i] = c.Write(mkPayload(each))
			}
			return lwt.Join(a.s, ws...)
		})
		a.s.Run(cp, main)
	})
	if _, err := k.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got.Len() != writes*each {
		t.Fatalf("delivered %d bytes, want %d", got.Len(), writes*each)
	}
	// 20 x 100B = 2000B fits two MSS-sized segments; an uncoalesced sender
	// emits one segment per write.
	if dataSegs > 3 {
		t.Errorf("burst of %d small writes sent %d data segments, want <= 3", writes, dataSegs)
	}
}
