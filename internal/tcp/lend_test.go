package tcp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/lwt"
)

// lentFrom reports whether b is the payload of the segment encoded into
// page: a read lent in place starts right after the TCP header.
func lentFrom(b, page []byte) bool { return len(b) > 0 && &b[0] == &page[HeaderLen] }

// TestReadLendsTheReceivePage: a read that one segment covers resolves with
// the bytes in the receive page, and the page goes back to the pool at the
// reader's next Read, Close or Abort — not before.
func TestReadLendsTheReceivePage(t *testing.T) {
	for _, tc := range []struct {
		name string
		next func(r *rxRig)
	}{
		{"Read", func(r *rxRig) { r.c.Read(4096) }},
		{"Close", func(r *rxRig) { r.c.Close() }},
		{"Abort", func(r *rxRig) { r.c.Abort() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRxRig(t)
			r.push(r.payload)
			page := r.page
			rd := r.c.Read(4096)
			got := rd.Value()
			if !lentFrom(got, page) {
				t.Fatal("a read of one whole segment did not resolve with the receive page's bytes")
			}
			if !bytes.Equal(got, r.payload) {
				t.Fatal("the lent bytes are not the segment's payload")
			}
			if r.pool.InUse != 1 {
				t.Fatalf("%d pages in use while a read holds one, want 1", r.pool.InUse)
			}
			tc.next(r)
			if r.pool.InUse != 0 {
				t.Errorf("%d pages in use after the reader's next %s, want 0", r.pool.InUse, tc.name)
			}
		})
	}
}

// TestPartialReadLendsAndKeepsTheRest: a read that takes part of a segment
// is lent too, and the page stays pinned by the unread rest after the
// reader's next call returns the lent reference.
func TestPartialReadLendsAndKeepsTheRest(t *testing.T) {
	r := newRxRig(t)
	r.push(r.payload)
	page := r.page
	head := r.c.Read(1000).Value()
	if !lentFrom(head, page) || !bytes.Equal(head, r.payload[:1000]) {
		t.Fatal("a read of part of a segment did not resolve with the receive page's bytes")
	}
	tail := r.c.Read(4096).Value()
	if !bytes.Equal(tail, r.payload[1000:]) || &tail[0] != &page[HeaderLen+1000] {
		t.Fatal("the rest of the segment was not lent in place")
	}
	if r.pool.InUse != 1 {
		t.Fatalf("%d pages in use while the rest is lent, want 1", r.pool.InUse)
	}
	r.c.Read(4096)
	if r.pool.InUse != 0 {
		t.Errorf("%d pages in use once the whole segment is read, want 0", r.pool.InUse)
	}
}

// TestReadCopiesAcrossChunksAndWhileLent: a read that spans two segments,
// and a second reader resolved in the same pass as a lent one, get copies;
// the copied pages go back to the pool when consumed.
func TestReadCopiesAcrossChunksAndWhileLent(t *testing.T) {
	t.Run("SpansTwoSegments", func(t *testing.T) {
		r := newRxRig(t)
		r.push(r.payload)
		first := r.page
		r.push(r.payload)
		second := r.page
		got := r.c.Read(64 << 10).Value()
		if len(got) != 2*len(r.payload) || lentFrom(got, first) || lentFrom(got[len(r.payload):], second) {
			t.Fatalf("a read of two segments (%d bytes) was not a copy", len(got))
		}
		if !bytes.Equal(got[:len(r.payload)], r.payload) || !bytes.Equal(got[len(r.payload):], r.payload) {
			t.Fatal("the copy lost bytes")
		}
		if r.pool.InUse != 0 {
			t.Errorf("%d pages in use after a copying read, want 0", r.pool.InUse)
		}
	})
	t.Run("SecondReaderInOnePass", func(t *testing.T) {
		r := newRxRig(t)
		a, b := r.c.Read(1000), r.c.Read(4096)
		r.push(r.payload)
		page := r.page
		if !a.Completed() || !b.Completed() {
			t.Fatal("one segment did not resolve both pending reads")
		}
		if !lentFrom(a.Value(), page) {
			t.Error("the first reader was not lent the page")
		}
		if got := b.Value(); &got[0] == &page[HeaderLen+1000] || !bytes.Equal(got, r.payload[1000:]) {
			t.Error("the second reader, resolved while the page was lent, did not get a copy")
		}
		r.c.Read(4096)
		if r.pool.InUse != 0 {
			t.Errorf("%d pages in use after the next Read, want 0", r.pool.InUse)
		}
	})
}

// TestResetKeepsLentBytes: an RST that lands between a read's resolution
// and its callback leaves the lent page alone — the callback may still be
// queued — so the bytes are intact inside the callback even though the next
// segment reuses a freed page; the page returns at Close.
func TestResetKeepsLentBytes(t *testing.T) {
	r := newRxRig(t)
	rd := r.c.Read(4096)
	var inside []byte
	inUse := -1
	lwt.Always(rd, func() {
		inside = append([]byte(nil), rd.Value()...)
		inUse = r.pool.InUse
	})
	r.push(r.payload)
	r.inject(Segment{Seq: r.seq, Flags: FlagRST})
	if r.c.State() != StateClosed {
		t.Fatalf("state %v after an in-sequence RST, want Closed", r.c.State())
	}
	// A segment for the dead connection: encoded into a page freed before
	// it, if any was.
	r.inject(Segment{Seq: r.seq, Flags: FlagACK, Payload: bytes.Repeat([]byte{0xAA}, len(r.payload))})
	r.run(t, time.Millisecond)
	if !bytes.Equal(inside, r.payload) {
		t.Fatal("the lent bytes changed before the read's callback ran")
	}
	if inUse != 1 {
		t.Errorf("%d pages in use inside the callback, want the lent one", inUse)
	}
	r.c.Close()
	if r.pool.InUse != 0 {
		t.Errorf("%d pages in use after Close, want 0", r.pool.InUse)
	}
}
