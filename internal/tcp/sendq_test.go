package tcp

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/sim"
)

// queuedCap sums the capacity of the chunks a send queue currently holds.
func queuedCap(q *sendQueue) int {
	n := 0
	for i := 0; i < q.chunks.Len(); i++ {
		n += cap(*q.chunks.At(i))
	}
	return n
}

// TestSendQueueNeverMovesBytes: whatever the interleaving of writes and
// cuts, the bytes come out in order, and a slice once cut keeps its content
// while later writes and cuts go on — the aliasing contract in-flight
// segments and directly wired peers rely on.
func TestSendQueueNeverMovesBytes(t *testing.T) {
	var q sendQueue
	src := mkPayload(1 << 20)
	type cutSeg struct {
		off  int
		data []byte
	}
	var segs []cutSeg
	wr, rd := 0, 0
	step := 0
	for rd < len(src) {
		step++
		if w := 1 + (step*7919)%(96<<10); wr < len(src) && q.Len() < 256<<10 {
			if wr+w > len(src) {
				w = len(src) - wr
			}
			q.write(src[wr : wr+w])
			wr += w
		}
		for i := 0; i < 1+step%40 && q.Len() > 0; i++ {
			n := 1460
			if step%11 == 0 {
				n = 1 + step%1460
			}
			if n > q.Len() {
				n = q.Len()
			}
			d := q.cut(n)
			if len(d) != n || cap(d) != n {
				t.Fatalf("cut(%d) returned len %d cap %d", n, len(d), cap(d))
			}
			segs = append(segs, cutSeg{rd, d})
			rd += n
		}
	}
	if q.Len() != 0 || queuedCap(&q) > maxSendChunk {
		t.Errorf("drained queue holds %d bytes, %d bytes of chunks", q.Len(), queuedCap(&q))
	}
	for _, s := range segs {
		if !bytes.Equal(s.data, src[s.off:s.off+len(s.data)]) {
			t.Fatalf("segment cut at offset %d changed after later writes", s.off)
		}
	}
}

// TestSendQueueSizedByData: the queue allocates for what is written, not a
// fixed chunk — a connection that sends one small request must not pay for a
// bulk sender's buffer.
func TestSendQueueSizedByData(t *testing.T) {
	var q sendQueue
	q.write(make([]byte, 100))
	if c := queuedCap(&q); c >= 1<<10 {
		t.Errorf("a 100-byte write allocated %d bytes of send queue, want < 1 KiB", c)
	}
	q.cut(100)
	if c := queuedCap(&q); c != 0 {
		t.Errorf("drained queue keeps %d bytes of full chunks", c)
	}
	q.write(make([]byte, 1<<20))
	for i := 0; i < q.chunks.Len(); i++ {
		if c := cap(*q.chunks.At(i)); c > maxSendChunk {
			t.Errorf("chunk of %d bytes exceeds the %d cap", c, maxSendChunk)
		}
	}
}

// TestBulkSendAllocationBudget: 4 MiB written by a stack whose Output is
// wired straight to a peer that only acknowledges (from a reply ring sized
// before the measurement starts), so everything the run allocates is the
// sender's: send queue, in-flight list, timers. The budget is 1.25 × the
// payload. (The send buffer this queue replaced re-grew on every refill and
// allocated 4.7 × on its own.)
func TestBulkSendAllocationBudget(t *testing.T) {
	const total = 4 << 20
	k := sim.NewKernel(1)
	s := lwt.NewScheduler(k)
	rx := k.NewSignal("rx")
	s.OnSignal(rx, func() {})
	st := NewStack(s, ipv4.AddrFrom4(10, 0, 0, 1), DefaultParams())
	peer := ipv4.AddrFrom4(10, 0, 0, 2)
	acked := 0
	replies, next := make([]Segment, 0, total/1460+8), 0
	deliver := func() {
		st.Input(peer, replies[next])
		next++
		rx.Set()
	}
	st.Output = func(_ ipv4.Addr, seg Segment) {
		reply := Segment{SrcPort: seg.DstPort, DstPort: seg.SrcPort, Seq: 7000, Ack: seg.Seq + uint32(len(seg.Payload)),
			Flags: FlagACK, Window: 0xffff, WndScale: -1}
		switch {
		case seg.Flags&FlagSYN != 0:
			reply.Flags, reply.Seq, reply.Ack = FlagSYN|FlagACK, 6999, seg.Seq+1
			reply.MSS, reply.WndScale = 1460, 7
		case len(seg.Payload) == 0:
			return
		}
		acked += len(seg.Payload)
		replies = append(replies, reply)
		k.After(100*time.Microsecond, deliver)
	}
	payload := mkPayload(total)
	var conn *Conn
	k.SpawnDaemon("client", func(p *sim.Proc) {
		s.Run(p, lwt.Bind(st.Connect(peer, 5001), func(c *Conn) *lwt.Promise[int] {
			conn = c
			return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[int] { return lwt.NewPromise[int](s) })
		}))
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := k.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if acked != total || conn.sendq.Len() != 0 || conn.inflight.Len() != 0 {
		t.Fatalf("peer acknowledged %d of %d bytes; sender holds %d queued bytes, %d segments",
			acked, total, conn.sendq.Len(), conn.inflight.Len())
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("sender allocated %.2f × the payload", ratio)
	if ratio > 1.25 {
		t.Errorf("sending %d bytes allocated %.2f × the payload, want <= 1.25 ×", total, ratio)
	}
}

// TestWireLenMatchesEncode: WireLen is what Encode writes, for every shape
// of segment the stack emits, so a body view reserved with it is never short.
func TestWireLenMatchesEncode(t *testing.T) {
	src, dst := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	for _, tc := range []struct {
		name string
		seg  Segment
	}{
		{"SYN", Segment{Flags: FlagSYN, MSS: 1460, WndScale: 7}},
		{"SYN no wscale", Segment{Flags: FlagSYN, MSS: 1460, WndScale: -1}},
		{"SYN|ACK", Segment{Flags: FlagSYN | FlagACK, MSS: 1460, WndScale: 7}},
		{"data", Segment{Flags: FlagACK | FlagPSH, WndScale: -1, Payload: mkPayload(1460)}},
		{"FIN", Segment{Flags: FlagFIN | FlagACK, WndScale: -1}},
		{"RST", Segment{Flags: FlagRST | FlagACK, WndScale: -1}},
	} {
		tc.seg.SrcPort, tc.seg.DstPort, tc.seg.Seq, tc.seg.Ack = 4000, 80, 1000, 2000
		v := cstruct.Make(tc.seg.WireLen()) // exactly WireLen: a short view panics in Encode
		if n := Encode(v, src, dst, tc.seg); n != tc.seg.WireLen() {
			t.Errorf("%s: Encode wrote %d bytes, WireLen %d", tc.name, n, tc.seg.WireLen())
		}
		if got, err := Parse(src, dst, v); err != nil || len(got.Payload) != len(tc.seg.Payload) {
			t.Errorf("%s: round trip: %v (payload %d)", tc.name, err, len(got.Payload))
		}
	}
}
