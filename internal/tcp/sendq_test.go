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
			piece := src[wr : wr+w]
			if step%3 == 0 {
				piece = append([]byte(nil), piece...) // a separate write: segments across it are gathered
			}
			q.write(piece)
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
	if q.Len() != 0 || q.chunks.Len() != 0 {
		t.Errorf("drained queue holds %d bytes in %d chunks", q.Len(), q.chunks.Len())
	}
	for _, s := range segs {
		if !bytes.Equal(s.data, src[s.off:s.off+len(s.data)]) {
			t.Fatalf("segment cut at offset %d changed after later writes", s.off)
		}
	}
}

// TestSendQueueKeepsTheWritersBytes: the queue copies nothing. A cut
// segment is a view of the caller's array; the flow-controlled pieces of one
// write rejoin into one chunk, so no segment cut from them is gathered; and
// the one gathered copy is the segment that spans two separate writes.
func TestSendQueueKeepsTheWritersBytes(t *testing.T) {
	var q sendQueue
	a, b := mkPayload(3000), mkPayload(3000)
	q.write(a[:1000])
	if d := q.cut(500); &d[0] != &a[0] {
		t.Error("a cut segment does not share the written array")
	}
	q.write(a[1000:2200]) // the next piece of the same write
	q.write(a[2200:])
	if k := q.chunks.Len(); k != 1 {
		t.Fatalf("three pieces of one write sit in %d chunks, want 1", k)
	}
	if d := q.cut(2000); &d[0] != &a[500] {
		t.Error("a segment across rejoined pieces was gathered")
	}
	q.write(b)
	d := q.cut(1000) // a's last 500 bytes, then b's first 500
	if &d[0] == &a[2500] || &d[0] == &b[0] {
		t.Error("a segment spanning two writes aliases one of them")
	}
	if !bytes.Equal(d, append(append([]byte(nil), a[2500:]...), b[:500]...)) {
		t.Error("the gathered segment's bytes are wrong")
	}
	if d := q.cut(q.Len()); &d[0] != &b[500] || q.chunks.Len() != 0 {
		t.Errorf("the rest of the second write was gathered or left %d chunks behind", q.chunks.Len())
	}
	q.write(a[:100])
	q.write(a[:100]) // the same bytes again: a new write, not a continuation
	if k := q.chunks.Len(); k != 2 {
		t.Errorf("two writes of one slice sit in %d chunks, want 2", k)
	}
	q.write(a[100:100:100]) // empty
	if q.Len() != 200 || q.chunks.Len() != 2 {
		t.Errorf("an empty write changed the queue: %d bytes in %d chunks", q.Len(), q.chunks.Len())
	}
	c := mkPayload(300)
	q = sendQueue{}
	q.write(c[:100:150]) // a capped piece: the next piece cannot rejoin it
	q.write(c[100:200])
	if k := q.chunks.Len(); k != 2 {
		t.Errorf("a piece past the tail's capacity rejoined it: %d chunks", k)
	}
}

// TestBulkSendAllocationBudget: 4 MiB written by a stack whose Output is
// wired straight to a peer that only acknowledges (from a reply ring sized
// before the measurement starts), so everything the run allocates is the
// sender's. The send queue keeps the written slice itself, so what is left
// is the in-flight list's array and the kernel's events: 0.16 × the
// payload, against a budget of 0.20 × that leaves a quarter for noise. (The
// copying queue this one replaced allocated 1.18 ×, and the send buffer
// before it 4.7 ×.)
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
	if inflight, unsent := queued(conn); acked != total || unsent != 0 || inflight != 0 {
		t.Fatalf("peer acknowledged %d of %d bytes; sender holds %d queued bytes, %d segments",
			acked, total, unsent, inflight)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("sender allocated %.3f × the payload", ratio)
	if ratio > 0.20 {
		t.Errorf("sending %d bytes allocated %.3f × the payload, want <= 0.20 ×", total, ratio)
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
