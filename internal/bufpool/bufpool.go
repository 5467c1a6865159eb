// Package bufpool provides a reference-counted pool of fixed-size I/O
// buffers for the hot frame path (paper §3.4.1). Where cstruct pages model
// granted guest memory, bufpool buffers are the backend's own staging
// storage: netback assembles scatter-gather TX frames into one pooled
// buffer, hands it to the bridge, and every endpoint that receives the
// frame releases its reference when done — the buffer returns to the free
// list instead of the garbage collector. Duplicate deliveries (fault
// injection, broadcast flood) retain the same buffer rather than copying
// it; the frame is immutable once transmitted.
//
// The pool counts the buffers in use (InUse) so tests can assert that a
// quiesced system leaked nothing, and Release panics on double-free — the
// same discipline cstruct pages enforce.
package bufpool

import "fmt"

// Buf is a fixed-capacity, reference-counted byte buffer.
type Buf struct {
	data []byte // full capacity
	n    int    // logical length
	refs int32
	pool *Pool

	// Span is causal-tracing metadata: the trace id of the request this
	// frame belongs to (0 = untraced). It rides the descriptor, never the
	// frame bytes, so traced and untraced runs stay byte-identical.
	Span uint64
}

// Pool hands out fixed-size buffers and recycles them when the last
// reference is released. A buffer may be allocated on one simulation shard
// and released on another; the set of operations is deterministic, so the
// counts are too.
type Pool struct {
	size  int
	free  []*Buf
	inUse int // buffers currently referenced
}

// NewPool returns an empty pool of size-byte buffers.
func NewPool(size int) *Pool {
	if size <= 0 {
		panic("bufpool: non-positive buffer size")
	}
	return &Pool{size: size}
}

// InUse returns how many buffers are currently live (referenced by at
// least one holder). A quiesced system should report zero — anything else
// is a leak.
func (p *Pool) InUse() int { return p.inUse }

// Get returns an empty buffer with reference count 1. Contents are not
// zeroed: the logical length starts at 0 and only appended bytes are ever
// exposed.
func (p *Pool) Get() *Buf {
	var b *Buf
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		b = &Buf{data: make([]byte, p.size), pool: p}
	}
	p.inUse++
	b.n = 0
	b.Span = 0
	b.refs = 1
	return b
}

// Wrap adopts an arbitrary slice as a pool-less buffer with reference
// count 1 (slow path: frames entering the bridge as raw bytes). Release
// still checks for double-free but returns nothing to any pool.
func Wrap(data []byte) *Buf {
	return &Buf{data: data, n: len(data), refs: 1}
}

// Bytes returns the logical contents. The slice aliases the pooled
// storage; it is valid until the last reference is released.
func (b *Buf) Bytes() []byte { return b.data[:b.n] }

// Len returns the logical length.
func (b *Buf) Len() int { return b.n }

// Extend grows the logical length by n and returns the newly exposed
// region for the caller to fill in place (e.g. a grant copy target).
// It returns nil if the buffer cannot hold n more bytes.
func (b *Buf) Extend(n int) []byte {
	if n < 0 || b.n+n > len(b.data) {
		return nil
	}
	region := b.data[b.n : b.n+n]
	b.n += n
	return region
}

// Append copies p into the buffer, growing the logical length. It panics
// if the buffer cannot hold p: frames are bounded by the MTU, which the
// pool's buffer size must cover.
func (b *Buf) Append(p []byte) {
	dst := b.Extend(len(p))
	if dst == nil {
		panic(fmt.Sprintf("bufpool: append %d bytes over capacity %d (len %d)", len(p), len(b.data), b.n))
	}
	copy(dst, p)
}

// Truncate shortens the logical length to n (rolls back a failed Extend).
func (b *Buf) Truncate(n int) {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("bufpool: Truncate(%d) outside [0,%d]", n, b.n))
	}
	b.n = n
}

// Retain adds a reference (another consumer of the same immutable frame).
func (b *Buf) Retain() *Buf {
	b.refs++
	if b.refs <= 1 {
		panic("bufpool: Retain of released buffer")
	}
	return b
}

// Release drops a reference; the last release returns a pooled buffer to
// its free list. Releasing an already-freed buffer panics.
func (b *Buf) Release() {
	b.refs--
	if b.refs < 0 {
		panic("bufpool: Release of already-freed buffer")
	}
	if b.refs > 0 {
		return
	}
	p := b.pool
	if p == nil {
		return
	}
	p.inUse--
	p.free = append(p.free, b)
}
