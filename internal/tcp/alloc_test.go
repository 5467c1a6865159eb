package tcp

import (
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// rxRig is one stack with an established passive connection and a scripted
// peer that allocates nothing: each segment the peer sends is encoded into
// a pooled page and parsed back, so it reaches the connection page-backed
// and checksummed as a frame off the wire does, and everything a run
// allocates is the receiving side's. A test that drives the connection's
// sending half sets onData to see each data or FIN segment it emits.
type rxRig struct {
	k    *sim.Kernel
	s    *lwt.Scheduler
	st   *Stack
	c    *Conn
	peer ipv4.Addr
	pool *cstruct.Pool
	page []byte // the page the last injected segment was encoded into

	seq     uint32 // next sequence number the peer sends
	payload []byte
	acks    int // segments the stack emitted
	got     int // bytes the application read

	sendFunc func(any, uint64)
	onData   func(Segment)
}

func newRxRig(t *testing.T) *rxRig {
	r := &rxRig{
		k:       sim.NewKernel(1),
		peer:    ipv4.AddrFrom4(10, 0, 0, 2),
		pool:    cstruct.NewPool(),
		seq:     5000,
		payload: mkPayload(1460),
	}
	r.s = lwt.NewScheduler(r.k)
	rx := r.k.NewSignal("rx")
	r.s.OnSignal(rx, func() {})
	r.st = NewStack(r.s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	var synAck Segment
	r.st.Output = func(_ ipv4.Addr, seg Segment) {
		r.acks++
		if seg.Flags&FlagSYN != 0 {
			synAck = seg
		}
		if r.onData != nil && (len(seg.Payload) > 0 || seg.Flags&FlagFIN != 0) {
			r.onData(seg)
		}
	}
	r.sendFunc = func(any, uint64) {
		r.inject(Segment{Seq: r.seq, Ack: synAck.Seq + 1, Flags: FlagACK, Payload: r.payload})
		r.seq += uint32(len(r.payload))
		rx.Set()
	}
	l, err := r.st.Listen(5001)
	if err != nil {
		t.Fatal(err)
	}
	lwt.Map(l.Accept(), func(c *Conn) struct{} { r.c = c; return struct{}{} })
	r.k.SpawnDaemon("app", func(p *sim.Proc) { r.s.Run(p, lwt.NewPromise[struct{}](r.s)) })
	r.inject(Segment{Seq: r.seq, Flags: FlagSYN, MSS: 1460, WndScale: 7})
	r.seq++
	r.inject(Segment{Seq: r.seq, Ack: synAck.Seq + 1, Flags: FlagACK})
	r.run(t, time.Millisecond)
	if r.c == nil || r.c.State() != StateEstablished {
		t.Fatalf("handshake did not complete: conn %v", r.c)
	}
	return r
}

// inject delivers seg from the peer through Encode and Parse.
func (r *rxRig) inject(seg Segment) {
	seg.SrcPort, seg.DstPort, seg.Window = 4000, 5001, 0xffff
	if seg.Flags&FlagSYN == 0 {
		seg.WndScale = -1
	}
	page := r.pool.Get()
	r.page = page.Bytes()
	body := page.Sub(0, seg.WireLen())
	page.Release()
	Encode(body, r.peer, r.st.LocalIP, seg)
	parsed, err := Parse(r.peer, r.st.LocalIP, body)
	if err != nil {
		panic(err)
	}
	r.st.Input(r.peer, parsed)
}

func (r *rxRig) run(t *testing.T, d time.Duration) {
	if _, err := r.k.RunFor(d); err != nil {
		t.Fatal(err)
	}
}

// push delivers the peer's next in-order data segment, carrying p.
func (r *rxRig) push(p []byte) {
	r.inject(Segment{Seq: r.seq, Ack: r.c.sndNxt, Flags: FlagACK, Payload: p})
	r.seq += uint32(len(p))
}

// ack delivers a pure ACK from the peer up to (not including) seq ack.
func (r *rxRig) ack(ack uint32) { r.inject(Segment{Seq: r.seq, Ack: ack, Flags: FlagACK}) }

// send writes n MSS segments' worth of fresh bytes and runs the instant's
// deferred send, returning the data segments the connection emitted.
func (r *rxRig) send(t *testing.T, n int) []Segment {
	var out []Segment
	r.onData = func(seg Segment) { out = append(out, seg) }
	r.c.Write(mkPayload(n * r.c.mss))
	r.run(t, time.Millisecond)
	if len(out) != n {
		t.Fatalf("a write of %d segments emitted %d (cwnd %d)", n, len(out), r.c.cwnd)
	}
	return out
}

func segEnd(seg Segment) uint32 { return seg.Seq + uint32(len(seg.Payload)) }

// TestLossRecoveryRFCCases: the scripted peer drives the sending half
// through the loss cases two RFCs settle, one row per rule.
func TestLossRecoveryRFCCases(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *rxRig)
	}{
		// RFC 6298 §3 (Karn): an ACK that retires a retransmitted segment
		// yields no RTT sample, whatever else it retires.
		{"KarnPerAck", func(t *testing.T, r *rxRig) {
			warm := r.send(t, 1)
			r.ack(segEnd(warm[0])) // 1 ms after it was sent
			if r.c.srtt != time.Millisecond {
				t.Fatalf("srtt %v after one 1 ms round trip, want 1ms", r.c.srtt)
			}
			srtt, rttvar := r.c.srtt, r.c.rttvar
			segs := r.send(t, 4)
			// The first segment is lost, and the duplicate ACKs the other
			// three draw are lost too: only the timeout repairs it.
			var rexmit []Segment
			r.onData = func(seg Segment) { rexmit = append(rexmit, seg) }
			r.run(t, r.c.rto)
			if len(rexmit) != 1 || rexmit[0].Seq != segs[0].Seq {
				t.Fatalf("the timeout retransmitted %d segments, want the first", len(rexmit))
			}
			r.ack(segEnd(segs[3])) // retires the retransmission and the three queued behind it
			if r.c.srtt != srtt || r.c.rttvar != rttvar {
				t.Errorf("srtt %v → %v, rttvar %v → %v: segments queued behind the repair were timed across the timeout",
					srtt, r.c.srtt, rttvar, r.c.rttvar)
			}
		}},
		// RFC 6582 §3.2 step 4: after a timeout, each ACK below the
		// recovery point repairs the next hole, so k holes take one RTO.
		{"TimeoutRepairsEveryHole", func(t *testing.T, r *rxRig) {
			warm := r.send(t, 4)
			r.ack(segEnd(warm[3])) // slow start opens the window to six segments
			segs := r.send(t, 6)
			// Segments 0, 2 and 4 are lost and the duplicate ACKs are lost
			// too. The peer answers each hole's retransmission 1 ms later
			// with a cumulative ACK up to the next hole.
			holes := []uint32{segs[0].Seq, segs[2].Seq, segs[4].Seq}
			repaired := 0
			r.onData = func(seg Segment) {
				if repaired == len(holes) || seg.Seq != holes[repaired] {
					return
				}
				repaired++
				next := segEnd(segs[5])
				if repaired < len(holes) {
					next = holes[repaired]
				}
				r.k.After(time.Millisecond, func() { r.ack(next) })
			}
			timeouts := r.st.mxTimeouts.Value()
			rto := r.c.rto
			r.run(t, rto+rto/2) // past the timeout, short of the backed-off one
			if inflight, _ := queued(r.c); repaired != len(holes) || inflight != 0 {
				t.Errorf("%d of %d holes retransmitted, %d segments unacknowledged", repaired, len(holes), inflight)
			}
			if n := r.st.mxTimeouts.Value() - timeouts; n != 1 {
				t.Errorf("%d timeouts, want 1", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newRxRig(t)) })
	}
}

// TestReceiveSegmentAllocations: an in-order MSS segment that finds a Read
// already pending costs the receiving side one allocation — the promise of
// the Read the application issues next — and nothing for the bytes (lent in
// place), the receive chain, the reader queue, the promise's continuation or
// the ACK flush.
func TestReceiveSegmentAllocations(t *testing.T) {
	r := newRxRig(t)
	// The application: one closure and one variable for every read, so the
	// only per-read allocations are the stack's.
	var cur *lwt.Promise[[]byte]
	var onData func()
	onData = func() {
		r.got += len(cur.Value())
		cur = r.c.Read(64 << 10)
		lwt.Always(cur, onData)
	}
	cur = r.c.Read(64 << 10)
	lwt.Always(cur, onData)

	const segs = 256
	burst := func() {
		for i := 0; i < segs; i++ {
			r.k.AtArg(r.k.Now().Add(time.Duration(i+1)*10*time.Microsecond), r.sendFunc, nil, 0)
		}
		r.run(t, segs*10*time.Microsecond+50*time.Millisecond) // past the delayed-ACK timer
	}
	acks := r.acks
	perBurst := testing.AllocsPerRun(4, burst)
	if want := 5 * segs * len(r.payload); r.got != want {
		t.Fatalf("application read %d bytes, want %d", r.got, want)
	}
	if r.acks-acks < 5*segs/2 {
		t.Errorf("stack sent %d ACKs for %d segments, want one per two", r.acks-acks, 5*segs)
	}
	// One per segment, plus the timing wheel's own event when the burst's
	// first delayed-ACK timer wakes it from idle.
	if perBurst > segs+1 {
		t.Errorf("%d received segments allocate %v objects, want <= 1 each (the Read promise)", segs, perBurst)
	}
	if r.pool.FreePages() == 0 {
		t.Error("no receive page went back to the pool")
	}
}

// TestSameInstantEventsAllocateNothing: arming the delayed-ACK timer,
// queueing the end-of-instant ACK flush and queueing a deferred send build no
// closure and no event — the connection rides the recycled kernel event.
func TestSameInstantEventsAllocateNothing(t *testing.T) {
	r := newRxRig(t)
	acks := r.acks
	const runs = 100
	n := testing.AllocsPerRun(runs, func() {
		r.c.use() // the idle connection takes its I/O part back from the stack
		r.c.scheduleDelayedAck()
		r.c.scheduleAckFlush()
		r.c.scheduleSend()
		r.run(t, time.Millisecond)
	})
	if n != 0 {
		t.Errorf("delayed ACK + ACK flush + deferred send allocate %v objects per cycle, want 0", n)
	}
	if got := r.acks - acks; got != runs+1 {
		t.Errorf("%d ACK flushes fired over %d cycles, want one each", got, runs+1)
	}
	if r.c.io != nil && r.c.io.delAckTimer.Pending() {
		t.Error("the ACK flush left the delayed-ACK timer armed")
	}
}

// TestReadOfNoBytesFails: Read(max <= 0) cannot carry data, and an empty
// slice means EOF — so it fails instead of resolving, whether or not data is
// buffered, and consumes nothing.
func TestReadOfNoBytesFails(t *testing.T) {
	r := newRxRig(t)
	r.sendFunc(nil, 0)
	for _, max := range []int{0, -1} {
		rd := r.c.Read(max)
		if !rd.Completed() || rd.Failed() == nil {
			t.Errorf("Read(%d) with %d bytes buffered: completed=%v err=%v, want a failure", max, r.c.rcvLen, rd.Completed(), rd.Failed())
		}
	}
	rd := r.c.Read(4096)
	if !rd.Completed() || rd.Failed() != nil || len(rd.Value()) != len(r.payload) {
		t.Fatalf("the buffered segment is no longer readable: completed=%v err=%v", rd.Completed(), rd.Failed())
	}
}
