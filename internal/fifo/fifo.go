// Package fifo is the queue the per-segment, per-frame and per-request paths
// pop from the front of. The idiom it replaces, q = q[1:], walks a slice off
// the end of its backing array — so a queue that never holds more than a
// few elements still reallocates every few pushes — and leaves each popped
// element reachable from the array until that reallocation happens.
package fifo

// Queue is a first-in first-out queue over one backing array: Pop advances
// a head index and zeroes the slot it leaves, Push appends and, when the
// array is full, slides the live elements back to its start rather than
// growing it if at least half of it is popped slots. A queue whose depth
// stays bounded therefore stops allocating once its array has reached about
// twice that depth, and pins nothing it has handed out. The zero value is an
// empty queue.
type Queue[T any] struct {
	buf  []T // buf[head:] are the queued elements, oldest first; buf[:head] is zeroed
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Cap returns the size of the backing array (0 after Reset).
func (q *Queue[T]) Cap() int { return cap(q.buf) }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= q.Len() {
		// Sliding moves fewer elements than it frees slots, so a push stays
		// O(1) amortised whatever the depth does.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// At returns the i'th queued element (0 is the oldest) in place; the pointer
// is good until the next Push, Pop or Reset.
func (q *Queue[T]) At(i int) *T { return &q.buf[q.head+i] }

// Pop removes and returns the oldest element; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Reset empties the queue and lets its backing array go.
func (q *Queue[T]) Reset() { *q = Queue[T]{} }
