package ring

import (
	"time"

	"repro/internal/sim"
)

// Vchan is the fast on-host inter-VM transport of §3.5.1: a pair of
// unidirectional byte rings over contiguous shared pages. Once connected,
// communicating VMs exchange data directly via shared memory; the only
// hypervisor involvement is interrupt notification, and each side checks
// for outstanding data before blocking so continuous flows need almost no
// notifications (the paper's footnote 4).

// byteRing is one direction of a vchan: a byte FIFO in shared memory with
// producer/consumer offsets and blocked flags for notification suppression.
type byteRing struct {
	buf         []byte
	prod, cons  uint32
	consBlocked bool // consumer has announced it is about to block
	prodBlocked bool // producer has announced it is about to block
	closed      bool
}

func (r *byteRing) used() int  { return int(r.prod - r.cons) }
func (r *byteRing) space() int { return len(r.buf) - r.used() }

// put copies as much of b as fits into the ring, wrapping at its end: at
// most two copies.
func (r *byteRing) put(b []byte) int {
	n := min(len(b), r.space())
	at := int(r.prod % uint32(len(r.buf)))
	c := copy(r.buf[at:], b[:n])
	copy(r.buf, b[c:n])
	r.prod += uint32(n)
	return n
}

// get copies up to len(b) queued bytes out of the ring: at most two copies.
func (r *byteRing) get(b []byte) int {
	n := min(len(b), r.used())
	at := int(r.cons % uint32(len(r.buf)))
	c := copy(b[:n], r.buf[at:])
	copy(b[c:n], r.buf)
	r.cons += uint32(n)
	return n
}

// VchanEnd is one endpoint of a vchan connection.
type VchanEnd struct {
	k       *sim.Kernel
	tx, rx  *byteRing
	canRead *sim.Signal // peer produced data into rx
	canSend *sim.Signal // peer consumed data from tx
	peer    *VchanEnd
	latency time.Duration

	// Notifies counts hypervisor notifications issued by this end; the
	// check-before-block design keeps this far below the byte count.
	Notifies int
}

// NewVchan connects two endpoints with ringBytes of buffer per direction
// (vchan allocates multiple contiguous pages so the ring has a reasonable
// buffer) and the given notification latency.
func NewVchan(k *sim.Kernel, ringBytes int, latency time.Duration) (*VchanEnd, *VchanEnd) {
	ab := &byteRing{buf: make([]byte, ringBytes)}
	ba := &byteRing{buf: make([]byte, ringBytes)}
	a := &VchanEnd{k: k, tx: ab, rx: ba, latency: latency,
		canRead: k.NewSignal("vchan-a-read"), canSend: k.NewSignal("vchan-a-send")}
	b := &VchanEnd{k: k, tx: ba, rx: ab, latency: latency,
		canRead: k.NewSignal("vchan-b-read"), canSend: k.NewSignal("vchan-b-send")}
	a.peer, b.peer = b, a
	return a, b
}

func (e *VchanEnd) notify(s *sim.Signal) {
	e.Notifies++
	e.k.After(e.latency, s.Set)
}

// Write sends all of data, blocking while the ring is full. It returns the
// bytes written (short only if the channel closes underneath it).
func (e *VchanEnd) Write(p *sim.Proc, data []byte) int {
	written := 0
	for len(data) > 0 && !e.tx.closed {
		n := e.tx.put(data)
		if n > 0 {
			written += n
			data = data[n:]
			// Notify only if the consumer said it was blocking.
			if e.tx.consBlocked {
				e.tx.consBlocked = false
				e.notify(e.peer.canRead)
			}
			continue
		}
		// Ring full: announce we are blocking, then re-check (the
		// peer may have consumed in between) before sleeping.
		e.tx.prodBlocked = true
		if e.tx.space() > 0 {
			e.tx.prodBlocked = false
			continue
		}
		p.Wait(e.canSend)
	}
	return written
}

// Read fills buf with at least one byte, blocking if the ring is empty.
// It returns 0 only when the channel is closed and drained.
func (e *VchanEnd) Read(p *sim.Proc, buf []byte) int {
	for {
		n := e.rx.get(buf)
		if n > 0 {
			if e.rx.prodBlocked {
				e.rx.prodBlocked = false
				e.notify(e.peer.canSend)
			}
			return n
		}
		if e.rx.closed {
			return 0
		}
		// Empty: announce blocking, re-check for racing data, sleep.
		e.rx.consBlocked = true
		if e.rx.used() > 0 {
			e.rx.consBlocked = false
			continue
		}
		p.Wait(e.canRead)
	}
}

// Close marks both directions closed and wakes the peer.
func (e *VchanEnd) Close() {
	e.tx.closed = true
	e.rx.closed = true
	e.notify(e.peer.canRead)
	e.notify(e.peer.canSend)
}
