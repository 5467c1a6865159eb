package tcp

import "repro/internal/fifo"

// sendQueue holds the bytes a connection has accepted from the application
// but not yet cut into segments. It copies nothing (§3.4.1): a chunk is the
// writer's own slice, kept under the Conn.Write contract that the caller
// leaves it unmodified until the peer has acknowledged it, and a segment
// payload is a capped reslice of a chunk. In-flight segments (and a peer
// wired directly to Output) go on aliasing the writer's bytes after the
// queue has moved past them.
//
// drainWriters hands the queue one write in flow-controlled pieces; a piece
// that starts exactly where the tail chunk ends extends that chunk instead
// of becoming a new one, so the pieces of one write rejoin and only a
// segment that spans two separate writes is gathered into a copy.
type sendQueue struct {
	chunks fifo.Queue[[]byte] // writers' slices, oldest first
	off    int                // bytes of the oldest chunk already cut into segments
	n      int                // queued, uncut bytes
}

// Len returns the number of queued bytes not yet cut into segments.
func (q *sendQueue) Len() int { return q.n }

// write queues data itself, not a copy.
func (q *sendQueue) write(data []byte) {
	if len(data) == 0 {
		return
	}
	q.n += len(data)
	if k := q.chunks.Len(); k > 0 {
		t := q.chunks.At(k - 1)
		if m := len(*t); m+len(data) <= cap(*t) && &(*t)[:m+1][m] == &data[0] {
			*t = (*t)[:m+len(data)]
			return
		}
	}
	q.chunks.Push(data)
}

// cut removes the next n queued bytes (0 < n <= Len) and returns them as one
// slice with len and cap n: a reslice of the head chunk, or, for a span that
// straddles two writes, a gathered copy.
func (q *sendQueue) cut(n int) []byte {
	q.n -= n
	head := *q.chunks.At(0)
	if q.off+n <= len(head) {
		out := head[q.off : q.off+n : q.off+n]
		q.off += n
		q.dropDrained()
		return out
	}
	out := make([]byte, 0, n)
	for len(out) < n {
		head = *q.chunks.At(0)
		take := len(head) - q.off
		if rest := n - len(out); take > rest {
			take = rest
		}
		out = append(out, head[q.off:q.off+take]...)
		q.off += take
		q.dropDrained()
	}
	return out
}

// dropDrained forgets the head chunk once every byte of it has been cut.
func (q *sendQueue) dropDrained() {
	if q.off < len(*q.chunks.At(0)) {
		return
	}
	q.chunks.Pop()
	q.off = 0
}

// drain empties the queue, keeping its chunk array.
func (q *sendQueue) drain() {
	for q.chunks.Len() > 0 {
		q.chunks.Pop()
	}
	q.off, q.n = 0, 0
}
