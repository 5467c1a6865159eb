package tcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cstruct"
	"repro/internal/fifo"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is a TCP connection state.
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{"Closed", "Listen", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait"}

func (s State) String() string { return stateNames[s] }

// ErrReset reports a connection torn down by an RST or local abort.
var ErrReset = errors.New("tcp: connection reset")

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

type inflightSeg struct {
	seq    uint32
	data   []byte
	fin    bool
	syn    bool
	sentAt sim.Time
	rexmit bool
}

func (i inflightSeg) seqLen() uint32 {
	n := uint32(len(i.data))
	if i.fin || i.syn {
		n++
	}
	return n
}

type pendingRead struct {
	max int
	pr  *lwt.Promise[[]byte]
}

// rcvChunk is one in-order span of received payload. When view is non-nil
// the bytes alias a pooled receive page kept alive by that view; the page
// reference is dropped once the application has consumed the chunk, or
// moves to Conn.lent when a Read lends the chunk's last bytes.
type rcvChunk struct {
	data []byte
	view *cstruct.View
}

type pendingWrite struct {
	data []byte
	pr   *lwt.Promise[int]
	n    int // bytes already buffered
}

// Conn is one TCP connection: the part it keeps for its whole life. It is
// sized for a million parked connections (a parked keep-alive connection is
// this struct and its pending Read), so what only a connection with I/O to
// do needs, its queues, its two deferred flushes and its three timers, is a
// connIO the connection holds only while it is busy (see connIO).
type Conn struct {
	st       *Stack
	io       *connIO   // nil while the connection is idle; see use and settle
	listener *Listener // listener this conn was accepted on (nil for active opens)
	// lent holds the receive page of the bytes the last Read resolved with
	// in place; it returns to the pool at the reader's next Read, Close or
	// Abort (see Read).
	lent     *cstruct.View
	connectP *lwt.Promise[*Conn] // a pending Connect: nil once it resolves or fails
	doneP    *lwt.Promise[struct{}]
	err      error
	readers  fifo.Queue[pendingRead]

	// span is the causal-tracing trace id this connection carries (0 =
	// untraced). Active opens inherit it from Stack.NextSpan; passive opens
	// adopt it from the arriving SYN's descriptor metadata. Every outbound
	// segment is stamped with it so the request's arc stays connected across
	// domains without touching wire bytes.
	span uint64

	state State

	// Send window, congestion control (New Reno) and the RTT estimate
	// (Jacobson, with Karn's rule) behind the RTO.
	sndWnd         int
	peerWndScale   int // -1 until negotiated
	mss            int
	cwnd, ssthresh int
	dupAcks        int
	srtt, rttvar   time.Duration
	rto            time.Duration

	// Receive side.
	myWndScale   int
	rcvLen       int // total bytes across the receive chain
	segsSinceAck int

	key connKey

	// Send and receive sequence spaces.
	iss, sndUna, sndNxt uint32
	sndWL1, sndWL2      uint32 // seq/ack of the segment last used to update sndWnd
	recover             uint32
	irs, rcvNxt         uint32

	finQueued, finSent, finRcvd bool
	fastRecovery                bool
	rtoRecovery                 bool // a timeout's holes below recover are being repaired
}

// connIO is the part of a connection that only I/O needs. A connection
// takes one from its stack's free list when it has something to send, time
// or answer (use), and hands it back at the end of the call or event that
// left all of it empty and nothing armed (settle): an established connection
// waiting for its peer holds none. A part is recycled whole. Its timer and
// flush callbacks are bound once, when it is first allocated, and its queues
// are drained, not reset, so their arrays keep their capacity from one
// connection to the next; taking one from the free list allocates nothing.
type connIO struct {
	c *Conn // the connection holding this part

	sendq    sendQueue // accepted, not yet segmented (see sendq.go)
	inflight fifo.Queue[inflightSeg]
	writers  fifo.Queue[pendingWrite]
	sendAt   sim.Flush // trySend deferred to the end of the instant

	rcvChain   fifo.Queue[rcvChunk] // in-order payload spans awaiting the application
	ooo        map[uint32][]byte    // allocated lazily on first out-of-order segment
	ackFlushAt sim.Flush            // the ACK deferred to the end of the instant

	// Zero-window persist (RFC 1122 §4.2.2.17).
	persistBackoff time.Duration

	// All per-connection timers live on the kernel's hierarchical timing
	// wheel: arming or moving one is an O(1) slot relink, and a million
	// pending timers put a handful of wheel events — not a million entries —
	// on the kernel event heap. The RTO timer doubles as the TIME_WAIT timer
	// (the RTO is disarmed for good by then); onTimerRTO dispatches on state.
	rtoTimer, delAckTimer, persistTimer sim.Timer
	// The timers' callbacks, bound to this part once.
	onRTO, onDelAck, onPersist func()
}

func newConnIO() *connIO {
	io := &connIO{}
	io.onRTO = io.fireRTO
	io.onDelAck = io.fireDelAck
	io.onPersist = io.firePersist
	io.sendAt.Init(func(owner any) {
		c := owner.(*connIO).c
		c.trySend()
		c.settle()
	}, io)
	io.ackFlushAt.Init(func(owner any) {
		c := owner.(*connIO).c
		if c.state != StateClosed {
			c.sendAck()
		}
		c.settle()
	}, io)
	return io
}

func (io *connIO) fireRTO() {
	c := io.c
	c.onTimerRTO()
	c.settle()
}

func (io *connIO) fireDelAck() {
	c := io.c
	if c.state != StateClosed {
		c.sendAck()
	}
	c.settle()
}

func (io *connIO) firePersist() {
	c := io.c
	if c.state != StateClosed {
		c.onPersist()
	}
	c.settle()
}

// armed reports whether a timer or a flush of the part is pending.
func (io *connIO) armed() bool {
	return io.rtoTimer.Pending() || io.delAckTimer.Pending() || io.persistTimer.Pending() ||
		io.sendAt.Pending() || io.ackFlushAt.Pending()
}

// idle reports whether the part holds nothing its connection still needs:
// every queue empty, no persist backoff in progress, nothing armed.
func (io *connIO) idle() bool {
	return io.sendq.Len() == 0 && io.inflight.Len() == 0 && io.writers.Len() == 0 &&
		io.rcvChain.Len() == 0 && len(io.ooo) == 0 && io.persistBackoff == 0 && !io.armed()
}

// use returns the connection's I/O part, taking one from the stack first if
// the connection holds none.
func (c *Conn) use() *connIO {
	if c.io == nil {
		c.io = c.st.getIO(c)
	}
	return c.io
}

// settle hands the connection's I/O part back to the stack if it is idle.
// Every call and event that may have used the part ends with it; nothing
// releases the part in the middle of one, so code between use and settle
// holds it throughout.
func (c *Conn) settle() {
	if io := c.io; io != nil && io.idle() {
		c.io = nil
		c.st.putIO(io)
	}
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// setState transitions the state machine, emitting a trace instant so the
// whole connection lifecycle is visible on the domain's timeline.
func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "state:"+s.String(), c.st.TracePid, 0,
			obs.Str("from", c.state.String()), obs.Int("port", int64(c.key.localPort)))
	}
	c.state = s
}

// spanArgs appends the connection's trace id to trace-instant args when the
// connection is sampled, so loss events (retransmits, timeouts, probes) land
// inside the request's causal arc.
func (c *Conn) spanArgs(args ...obs.Arg) []obs.Arg {
	if c.span == 0 {
		return args
	}
	return append(args, obs.U64("trace_id", c.span))
}

// RemoteAddr returns the peer's address and port.
func (c *Conn) RemoteAddr() (addr uint32, port uint16) {
	return uint32(c.key.remoteIP), c.key.remotePort
}

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// TraceID returns the causal-tracing trace id riding this connection
// (0 = untraced).
func (c *Conn) TraceID() uint64 { return c.span }

func newConn(st *Stack, key connKey) *Conn {
	p := st.Params
	return &Conn{
		st:           st,
		key:          key,
		mss:          p.MSS,
		cwnd:         initCwnd * p.MSS,
		ssthresh:     1 << 30,
		rto:          initRTO,
		sndWnd:       p.MSS, // until the peer advertises
		peerWndScale: -1,
		myWndScale:   wndScale,
	}
}

// onTimerRTO fires the retransmission timer — or, once the connection has
// reached TIME_WAIT (where the RTO is permanently disarmed and the timer
// slot is reused for the 2MSL wait), completes the close.
func (c *Conn) onTimerRTO() {
	switch c.state {
	case StateClosed:
	case StateTimeWait:
		c.teardown(nil)
	default:
		if c.io.inflight.Len() > 0 {
			c.onTimeout()
		}
	}
}

// window returns the receive window to advertise.
func (c *Conn) window() int {
	w := c.st.Params.RcvBuf - c.rcvLen
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) advertisedWindow(syn bool) uint16 {
	w := c.window()
	if !syn {
		w >>= uint(c.myWndScale)
	}
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

// send emits a segment to the peer via the stack.
func (c *Conn) send(flags uint8, seq uint32, payload []byte, syn bool) {
	seg := Segment{
		SrcPort:  c.key.localPort,
		DstPort:  c.key.remotePort,
		Seq:      seq,
		Flags:    flags,
		Window:   c.advertisedWindow(syn),
		WndScale: -1,
		Payload:  payload,
		Span:     c.span,
	}
	if flags&FlagACK != 0 {
		seg.Ack = c.rcvNxt
	}
	if syn {
		seg.MSS = uint16(c.mss)
		seg.WndScale = c.myWndScale
	}
	c.st.mxSegsOut.Inc()
	c.st.Output(c.key.remoteIP, seg)
}

func (c *Conn) sendAck() {
	c.segsSinceAck = 0
	if io := c.io; io != nil {
		io.delAckTimer.Cancel() // any explicit ACK supersedes a delayed one
		io.ackFlushAt.Cancel()  // and a pending same-instant flush
	}
	c.send(FlagACK, c.sndNxt, nil, false)
}

// scheduleAckFlush defers the ACK to the current instant's end: every
// in-order segment drained in the same wakeup (a ring batch) lands before
// the flush event runs, so one cumulative ACK covers the whole batch
// instead of one per segment pair (§3.4.1 batched acknowledgement). For
// segments arriving at distinct instants this is indistinguishable from an
// immediate ACK.
func (c *Conn) scheduleAckFlush() {
	if k := c.st.S.K; !c.io.ackFlushAt.Pending() {
		c.io.ackFlushAt.Arm(k, k.Now())
	}
}

// scheduleDelayedAck arms the delayed-ACK timer (every-second-segment
// immediate ACK is handled by the caller).
func (c *Conn) scheduleDelayedAck() {
	if c.io.delAckTimer.Pending() {
		return
	}
	c.st.wheel.Schedule(&c.io.delAckTimer, c.st.S.K.Now().Add(delayedAck))
}

// flightSize returns bytes in flight.
func (c *Conn) flightSize() int { return int(c.sndNxt - c.sndUna) }

// usableWindow is how many more bytes we may inject.
func (c *Conn) usableWindow() int {
	wnd := c.cwnd
	if c.sndWnd < wnd {
		wnd = c.sndWnd
	}
	return wnd - c.flightSize()
}

// trySend segments and transmits buffered data within the send window,
// then the queued FIN if the buffer has drained. Queued writer data is
// pulled into the send queue BEFORE segments are cut, so several small
// writes issued in one burst coalesce into MSS-sized segments rather than
// one undersized segment per write. Segment payloads come from the
// send queue: capped reslices of the writers' own slices, with no copy
// except for the segment that straddles two separate writes.
func (c *Conn) trySend() {
	io := c.io
	io.sendAt.Cancel() // this call is the flush; pending deferred sends are stale
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateClosing && c.state != StateLastAck {
		return
	}
	sent := false
	for {
		c.drainWriters()
		progress := false
		for io.sendq.Len() > 0 {
			avail := c.usableWindow()
			if avail <= 0 {
				break
			}
			n := io.sendq.Len()
			if n > c.mss {
				n = c.mss
			}
			if n > avail {
				n = avail
			}
			data := io.sendq.cut(n)
			io.inflight.Push(inflightSeg{seq: c.sndNxt, data: data, sentAt: c.st.S.K.Now()})
			flags := uint8(FlagACK)
			if io.sendq.Len() == 0 && io.writers.Len() == 0 {
				flags |= FlagPSH
			}
			c.send(flags, c.sndNxt, data, false)
			c.sndNxt += uint32(n)
			progress, sent = true, true
		}
		if !progress {
			break
		}
	}
	if c.finQueued && !c.finSent && io.sendq.Len() == 0 && c.usableWindow() > 0 {
		c.finSent = true
		io.inflight.Push(inflightSeg{seq: c.sndNxt, fin: true, sentAt: c.st.S.K.Now()})
		c.send(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.sndNxt++
		sent = true
	}
	if sent {
		c.armRTO() // one timer (re)arm per burst, not per segment
	}
	c.maybeArmPersist()
}

// scheduleSend defers trySend to the end of the current instant, so every
// Write issued in the same wakeup lands in the send queue before any
// segment is cut (the write-coalescing half of §3.4.1 batching).
func (c *Conn) scheduleSend() {
	k := c.st.S.K
	c.io.sendAt.Arm(k, k.Now())
}

// drainWriters moves queued user writes into the send queue as space
// frees, resolving their promises once fully buffered.
func (c *Conn) drainWriters() {
	io := c.io
	for io.writers.Len() > 0 {
		w := io.writers.At(0)
		space := sndBuf - io.sendq.Len()
		if space <= 0 {
			return
		}
		take := len(w.data) - w.n
		if take > space {
			take = space
		}
		io.sendq.write(w.data[w.n : w.n+take])
		w.n += take
		if w.n == len(w.data) {
			done := io.writers.Pop()
			done.pr.Resolve(done.n)
		}
	}
}

// Write queues data for transmission. The stack keeps data itself, not a
// copy, until the peer acknowledges it, so the caller must not modify data
// after the call (Mirage's contract for a written buffer). The promise
// resolves with len(data) once everything is accepted into the send queue
// (flow-controlled against sndBuf), which may be before it is acknowledged.
// Transmission is deferred to the end of the instant so that back-to-back
// small writes coalesce into full segments.
func (c *Conn) Write(data []byte) *lwt.Promise[int] {
	pr := lwt.NewPromise[int](c.st.S)
	if c.err != nil {
		pr.Fail(c.err)
		return pr
	}
	if c.finQueued {
		pr.Fail(errors.New("tcp: write after close"))
		return pr
	}
	c.use().writers.Push(pendingWrite{data: data, pr: pr})
	c.drainWriters()
	c.scheduleSend() // the deferred send keeps the I/O part busy: no settle
	return pr
}

// Read resolves with up to max bytes as soon as data is available, with an
// empty slice at EOF (peer closed), or fails after a reset. The bytes are
// lent, not copied, when they lie in one received segment: they are a view
// of the receive page and stay valid until the caller's next Read, Close or
// Abort on this connection, which return the page to the domain's pool. A
// caller that keeps them longer copies them (Mirage's contract for a read
// buffer, mirrored by Write's and shared with bufio.Reader.ReadSlice).
func (c *Conn) Read(max int) *lwt.Promise[[]byte] {
	c.returnLent()
	pr := lwt.NewPromise[[]byte](c.st.S)
	if max <= 0 {
		// An empty slice means EOF; a read that can carry no bytes must not
		// resolve with one while the peer is still open.
		pr.Fail(fmt.Errorf("tcp: read of %d bytes", max))
		return pr
	}
	c.readers.Push(pendingRead{max: max, pr: pr})
	c.wakeReaders()
	c.settle()
	return pr
}

// returnLent drops the page reference the last Read lent, if any. Only the
// reader's own calls reach it: a teardown the peer starts leaves the page
// lent, because the callback of the Read that took it may still be queued.
func (c *Conn) returnLent() {
	if c.lent != nil {
		c.lent.Release()
		c.lent = nil
	}
}

func (c *Conn) wakeReaders() {
	wasLow := c.window() < c.mss
	defer func() {
		// Window update (RFC 1122 §4.2.3.3): if the application drained a
		// closed receive window, tell the stalled sender it may resume.
		if wasLow && c.window() >= c.mss {
			switch c.state {
			case StateEstablished, StateFinWait1, StateFinWait2:
				c.sendAck()
			}
		}
	}()
	for c.readers.Len() > 0 {
		switch {
		case c.rcvLen > 0:
			r := c.readers.Pop()
			r.pr.Resolve(c.takeRcv(r.max))
		case c.finRcvd:
			c.readers.Pop().pr.Resolve(nil) // EOF
		case c.err != nil:
			c.readers.Pop().pr.Fail(c.err)
		default:
			return
		}
	}
}

// takeRcv consumes up to max buffered bytes, charging them to the receive
// window. Bytes that lie in the head chunk are returned in place, with no
// copy — the §3.4.1 discipline: the application reads a view of the page
// netback filled. A page-backed chunk's page stays pinned in c.lent until
// the reader's next call (see Read); a second read resolved while a page is
// lent, and a read that spans chunks, get a copy.
func (c *Conn) takeRcv(max int) []byte {
	n := c.rcvLen
	if n > max {
		n = max
	}
	first := c.io.rcvChain.At(0)
	c.rcvLen -= n
	if len(first.data) >= n && (first.view == nil || c.lent == nil) {
		out := first.data[:n:n]
		if first.view != nil {
			c.lent = first.view
			if n < len(first.data) {
				c.lent.Retain() // the rest of the chunk keeps its own reference
			} else {
				first.view = nil // the reference moves to c.lent
			}
		}
		c.consumeRcv(n)
		return out
	}
	src := first.data
	out := make([]byte, n)
	copy(out, src) // adjacent to make, from a plain variable: the bytes this writes are not zeroed first
	for got := c.consumeRcv(n); got < n; {
		copy(out[got:], c.io.rcvChain.At(0).data)
		got += c.consumeRcv(n - got)
	}
	return out
}

// consumeRcv drops up to want bytes from the head chunk of the receive
// chain — the whole chunk, page reference included, once none of it is left
// — and returns how many it dropped.
func (c *Conn) consumeRcv(want int) int {
	ch := c.io.rcvChain.At(0)
	if want < len(ch.data) {
		ch.data = ch.data[want:]
		return want
	}
	if ch.view != nil {
		ch.view.Release()
	}
	return len(c.io.rcvChain.Pop().data)
}

// Close queues a FIN after buffered data drains (active/passive close).
func (c *Conn) Close() {
	c.returnLent()
	if c.finQueued || c.err != nil {
		return
	}
	c.finQueued = true
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
	c.use()
	c.trySend()
	c.settle()
}

// Abort sends RST and tears the connection down.
func (c *Conn) Abort() {
	c.returnLent()
	if c.state != StateClosed {
		c.send(FlagRST|FlagACK, c.sndNxt, nil, false)
	}
	c.teardown(ErrReset)
	c.settle()
}

// Done resolves once the connection reaches Closed (including TIME_WAIT
// expiry). A unikernel's main thread waits on this before returning, since
// the VM — and with it all retransmission timers — dies with main (§3.3).
func (c *Conn) Done() *lwt.Promise[struct{}] {
	if c.doneP == nil {
		c.doneP = lwt.NewPromise[struct{}](c.st.S)
		if c.state == StateClosed {
			c.doneP.Resolve(struct{}{})
		}
	}
	return c.doneP
}

func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	if c.state == StateSynRcvd && c.listener != nil {
		delete(c.listener.synRcvd, c.key)
	}
	c.setState(StateClosed)
	c.err = err
	io := c.io
	if io != nil {
		// Unlink every wheel timer: O(1) each, nothing lingers on the wheel.
		io.rtoTimer.Cancel()
		io.delAckTimer.Cancel()
		io.persistTimer.Cancel()
		io.ackFlushAt.Cancel()
		io.sendAt.Cancel()
		// Unconsumed receive data still pins pages; let them go.
		for io.rcvChain.Len() > 0 {
			if v := io.rcvChain.Pop().view; v != nil {
				v.Release()
			}
		}
		io.drainBuffers()
	}
	c.rcvLen = 0
	c.st.remove(c.key)
	if c.doneP != nil && !c.doneP.Completed() {
		c.doneP.Resolve(struct{}{})
	}
	if pr := c.connectP; pr != nil { // still in SynSent: the connect is pending
		c.connectP = nil
		pr.Fail(err)
	}
	for c.readers.Len() > 0 {
		if r := c.readers.Pop(); err != nil {
			r.pr.Fail(err)
		} else {
			r.pr.Resolve(nil)
		}
	}
	c.readers.Reset()
	if io != nil {
		for io.writers.Len() > 0 {
			io.writers.Pop().pr.Fail(fmt.Errorf("tcp: connection closed"))
		}
	}
	// The part is idle now; the call or event that tore the connection
	// down hands it back when it settles.
}

// drainBuffers empties the send queue, the retransmission queue and the
// reassembly map, keeping their arrays for the part's next connection, and
// ends any persist backoff: nothing is left to send.
func (io *connIO) drainBuffers() {
	io.sendq.drain()
	io.dropInflight()
	clear(io.ooo)
	io.persistBackoff = 0
}

// dropInflight empties the retransmission queue, keeping its array.
func (io *connIO) dropInflight() {
	for io.inflight.Len() > 0 {
		io.inflight.Pop()
	}
}

// --- Timers ---

func (c *Conn) armRTO() {
	c.st.wheel.Schedule(&c.io.rtoTimer, c.st.S.K.Now().Add(c.rto))
}

func (c *Conn) disarmRTO() { c.io.rtoTimer.Cancel() }

// maybeArmPersist starts the zero-window probe timer when data (or a FIN)
// is pending but the peer's window forbids sending and nothing is in
// flight to arm an RTO. Without it, a lost window-update ACK leaves the
// sender stalled forever (RFC 1122 §4.2.2.17).
func (c *Conn) maybeArmPersist() {
	io := c.io
	if io.persistTimer.Pending() || c.state == StateClosed {
		return
	}
	pending := io.sendq.Len() > 0 || (c.finQueued && !c.finSent)
	if !pending || io.inflight.Len() > 0 || c.usableWindow() > 0 {
		return
	}
	if io.persistBackoff == 0 {
		io.persistBackoff = c.rto
	}
	c.armPersist()
}

func (c *Conn) armPersist() {
	io := c.io
	c.st.wheel.Schedule(&io.persistTimer, c.st.S.K.Now().Add(io.persistBackoff))
}

// onPersist fires the persist timer: if the window is still closed it
// forces one byte (or the queued FIN) past it so the peer must answer
// with its current window, then backs off and re-arms.
func (c *Conn) onPersist() {
	io := c.io
	if c.sndWnd > 0 {
		// The window reopened while the timer was pending; the normal
		// send path owns any inflight probe again.
		if io.inflight.Len() > 0 {
			c.armRTO()
		}
		c.trySend()
		return
	}
	if io.inflight.Len() == 0 && io.sendq.Len() == 0 && (!c.finQueued || c.finSent) {
		return // nothing left to probe for
	}
	c.st.mxPersistProbes.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "persist-probe", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("backoff_us", int64(io.persistBackoff.Microseconds())))...)
	}
	switch {
	case io.inflight.Len() > 0:
		// A previous probe is still unacknowledged: resend it.
		c.retransmitFirst()
	case io.sendq.Len() > 0:
		// Window probe: one byte past the advertised window.
		data := io.sendq.cut(1)
		io.inflight.Push(inflightSeg{seq: c.sndNxt, data: data, sentAt: c.st.S.K.Now()})
		c.send(FlagACK|FlagPSH, c.sndNxt, data, false)
		c.sndNxt++
	default: // queued FIN blocked by the window
		c.finSent = true
		io.inflight.Push(inflightSeg{seq: c.sndNxt, fin: true, sentAt: c.st.S.K.Now()})
		c.send(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.sndNxt++
	}
	io.persistBackoff *= 2
	if io.persistBackoff < c.rto {
		io.persistBackoff = c.rto
	}
	if io.persistBackoff > maxRTO {
		io.persistBackoff = maxRTO
	}
	c.armPersist()
}

// onTimeout is the retransmission timeout: collapse the window and
// retransmit the oldest unacknowledged segment (RFC 5681 §3.1).
func (c *Conn) onTimeout() {
	c.st.mxTimeouts.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "rto-timeout", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("rto_us", int64(c.rto.Microseconds())))...)
	}
	flight := c.flightSize()
	c.ssthresh = max(flight/2, 2*c.mss)
	c.cwnd = c.mss
	c.fastRecovery = false
	c.rtoRecovery = true
	c.recover = c.sndNxt
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.retransmitFirst()
	c.armRTO()
}

func (c *Conn) retransmitFirst() {
	io := c.io
	if io.inflight.Len() == 0 {
		return
	}
	c.st.mxRetransmits.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "retransmit", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("seq", int64(io.inflight.At(0).seq)))...)
	}
	seg := io.inflight.At(0)
	seg.rexmit = true
	switch {
	case seg.syn && c.state == StateSynSent:
		c.send(FlagSYN, seg.seq, nil, true)
	case seg.syn: // SYN|ACK from SynRcvd
		c.send(FlagSYN|FlagACK, seg.seq, nil, true)
	case seg.fin:
		c.send(FlagFIN|FlagACK, seg.seq, nil, false)
	default:
		c.send(FlagACK|FlagPSH, seg.seq, seg.data, false)
	}
}

// --- RTT estimation (Jacobson, with Karn's rule) ---

// sampleRTT feeds the estimator the round trip of a segment sent at
// sentAt and acknowledged now; processAck applies Karn's rule.
func (c *Conn) sampleRTT(sentAt sim.Time) {
	r := c.st.S.K.Now().Sub(sentAt)
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rto = rto
}
