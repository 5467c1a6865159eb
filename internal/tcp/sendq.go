package tcp

import "repro/internal/fifo"

// maxSendChunk bounds one send-queue chunk: large enough that a bulk
// writer's MSS segments rarely straddle two chunks, small enough that a
// chunk is released soon after its last segment is acknowledged.
const maxSendChunk = 64 << 10

// sendQueue holds the bytes a connection has accepted from the application
// but not yet cut into segments. It is append-only: a byte, once queued,
// stays where it is until the garbage collector finds its chunk unreferenced
// — it is never moved, overwritten or handed out again — because segment
// payloads are capped reslices of a chunk, and in-flight segments (and a
// peer wired directly to Output) go on aliasing them after the queue has
// moved past.
//
// Chunks are sized by the data that arrives, not by a constant: a new chunk
// holds what is being queued, or twice the chunk it follows when that is
// larger, up to maxSendChunk. A connection that sends one small request pays
// for that request; a burst of small writes grows geometrically; a bulk
// writer gets full-size chunks at once.
type sendQueue struct {
	chunks fifo.Queue[[]byte] // oldest first; only the newest has spare capacity
	off    int                // bytes of the oldest chunk already cut into segments
	n      int                // queued, uncut bytes
}

// Len returns the number of queued bytes not yet cut into segments.
func (q *sendQueue) Len() int { return q.n }

// write appends a copy of data.
func (q *sendQueue) write(data []byte) {
	q.n += len(data)
	prev := 0
	if k := q.chunks.Len(); k > 0 {
		tail := q.chunks.At(k - 1)
		m := copy((*tail)[len(*tail):cap(*tail)], data)
		*tail = (*tail)[:len(*tail)+m]
		data = data[m:]
		prev = cap(*tail)
	}
	for len(data) > 0 {
		size := 2 * prev
		if size < len(data) {
			size = len(data)
		}
		if size > maxSendChunk {
			size = maxSendChunk
		}
		m := len(data)
		if m > size {
			m = size
		}
		chunk := make([]byte, size)
		copy(chunk, data) // adjacent to make: only the spare tail is zeroed
		q.chunks.Push(chunk[:m])
		prev = size
		data = data[m:]
	}
}

// cut removes the next n queued bytes (0 < n <= Len) and returns them as one
// slice the caller may keep for ever: a capped reslice of the head chunk, or,
// for the rare span that straddles chunks, a gathered copy.
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

// dropDrained forgets the head chunk once every byte of it has been cut and
// no write can land in it any more.
func (q *sendQueue) dropDrained() {
	head := *q.chunks.At(0)
	if q.off < len(head) || (q.chunks.Len() == 1 && len(head) < cap(head)) {
		return
	}
	q.chunks.Pop()
	q.off = 0
}
