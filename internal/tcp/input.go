package tcp

// Segment input processing: the RFC 793 event machine plus New Reno loss
// recovery (RFC 6582) and fast retransmit (RFC 5681).

import "repro/internal/obs"

// input consumes seg: every path either hands the payload view on to the
// receive chain or releases it. A segment other than an RST may have to be
// queued, timed or answered, so the connection takes its I/O part for it,
// and hands the part back if the segment left it idle.
func (c *Conn) input(seg Segment) {
	if seg.Flags&FlagRST != 0 {
		seg.releaseView()
		c.inputRst(seg)
		c.settle()
		return
	}
	if c.state == StateClosed {
		seg.releaseView() // late segment; ignore
		return
	}
	c.use()
	switch c.state {
	case StateSynSent:
		seg.releaseView() // payload on SYN|ACK is not supported
		c.inputSynSent(seg)
	case StateSynRcvd:
		c.inputSynRcvd(seg)
	default:
		c.inputData(seg)
	}
	c.settle()
}

// inputRst validates an RST against the receive window (RFC 5961 §3.2)
// instead of tearing down on any RST: only an exactly-in-sequence RST
// resets the connection, an otherwise in-window RST elicits a challenge
// ACK (a legitimate peer answers it with an exact-sequence RST), and
// everything else — a blind or badly reordered reset — is dropped and
// counted.
func (c *Conn) inputRst(seg Segment) {
	switch c.state {
	case StateClosed:
		return
	case StateSynSent:
		// RFC 793: acceptable only if it acknowledges our SYN.
		if seg.Flags&FlagACK != 0 && seg.Ack == c.iss+1 {
			c.teardown(ErrReset)
			return
		}
	default:
		if seg.Seq == c.rcvNxt {
			c.teardown(ErrReset)
			return
		}
		if wnd := uint32(c.window()); wnd > 0 && seqLT(c.rcvNxt, seg.Seq) && seqLT(seg.Seq, c.rcvNxt+wnd) {
			c.rejectRst(seg)
			c.sendAck() // challenge ACK
			return
		}
	}
	c.rejectRst(seg)
}

func (c *Conn) rejectRst(seg Segment) {
	c.st.mxRstsRejected.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "rst-rejected", c.st.TracePid, 0,
			obs.Int("port", int64(c.key.localPort)), obs.Int("seq", int64(seg.Seq)))
	}
}

func (c *Conn) inputSynSent(seg Segment) {
	if seg.Flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK || seg.Ack != c.iss+1 {
		return
	}
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.sndUna = seg.Ack
	c.io.dropInflight()
	c.disarmRTO()
	c.negotiate(seg)
	c.setState(StateEstablished)
	c.sendAck()
	if pr := c.connectP; pr != nil {
		c.connectP = nil // an established connection holds no Connect promise
		pr.Resolve(c)
	}
	c.trySend()
}

func (c *Conn) inputSynRcvd(seg Segment) {
	if seg.Flags&FlagSYN != 0 && seg.Seq == c.irs {
		// Duplicate SYN: re-send SYN|ACK.
		seg.releaseView()
		c.retransmitFirst()
		return
	}
	if seg.Flags&FlagACK == 0 || seg.Ack != c.iss+1 {
		seg.releaseView()
		return
	}
	c.sndUna = seg.Ack
	c.io.dropInflight()
	c.disarmRTO()
	c.setState(StateEstablished)
	if l := c.listener; l != nil {
		delete(l.synRcvd, c.key)
		if l.closed {
			// The listener went away mid-handshake: refuse the peer.
			seg.releaseView()
			c.Abort()
			return
		}
		l.deliver(c)
	}
	// The handshake-completing ACK may carry data; fall through.
	if len(seg.Payload) > 0 || seg.Flags&FlagFIN != 0 {
		c.inputData(seg)
	}
}

// negotiate applies the peer's SYN options.
func (c *Conn) negotiate(seg Segment) {
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.peerWndScale = seg.WndScale // -1 when the peer did not offer scaling
	if c.peerWndScale < 0 {
		c.myWndScale = 0 // scaling is all-or-nothing
	}
	// A SYN's window field is never scaled.
	c.sndWnd = int(seg.Window)
	c.sndWL1, c.sndWL2 = seg.Seq, seg.Ack
}

// inputData is the established-states processing: ACKs, payload, FIN.
func (c *Conn) inputData(seg Segment) {
	if seg.Flags&FlagACK != 0 {
		c.processAck(seg)
	}
	if len(seg.Payload) > 0 {
		c.processPayload(seg)
	}
	if seg.Flags&FlagFIN != 0 {
		c.processFin(seg)
	}
}

func (c *Conn) processAck(seg Segment) {
	ack := seg.Ack
	// Window update (peer's scale applies off-SYN), gated by the
	// SND.WL1/SND.WL2 check (RFC 793 p.72): only a segment at least as
	// recent as the one last used to update the window may change it, so
	// a reordered stale ACK cannot shrink or corrupt the send window.
	wndChanged := false
	if seqLT(c.sndWL1, seg.Seq) || (c.sndWL1 == seg.Seq && seqLEQ(c.sndWL2, ack)) {
		scale := 0
		if c.peerWndScale > 0 {
			scale = c.peerWndScale
		}
		newWnd := int(seg.Window) << uint(scale)
		wndChanged = newWnd != c.sndWnd
		c.sndWnd = newWnd
		c.sndWL1, c.sndWL2 = seg.Seq, ack
		if wndChanged && newWnd > 0 {
			c.io.persistBackoff = 0 // a reopened window resets probe backoff
			// A reopened window may unblock stalled data.
			defer c.trySend()
		}
	}

	switch {
	case seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndNxt):
		acked := int(ack - c.sndUna)
		c.sndUna = ack
		// Drop fully-acked inflight segments and sample RTT from the newest
		// — unless any of them was retransmitted: Karn's rule holds per ACK
		// (RFC 6298 §3), or a segment queued behind a repaired hole would
		// be timed across the whole wait for its repair.
		var newest inflightSeg
		popped, rexmit := false, false
		for c.io.inflight.Len() > 0 {
			if s := c.io.inflight.At(0); !seqLEQ(s.seq+s.seqLen(), ack) {
				break
			}
			newest = c.io.inflight.Pop()
			popped, rexmit = true, rexmit || newest.rexmit
		}
		if popped && !rexmit {
			c.sampleRTT(newest.sentAt)
		}
		if c.fastRecovery {
			if seqLT(ack, c.recover) {
				// Partial ACK (New Reno): retransmit the next hole,
				// deflate by the acked amount.
				c.retransmitFirst()
				c.cwnd = max(c.cwnd-acked+c.mss, c.mss)
			} else {
				// Full ACK: leave recovery.
				c.fastRecovery = false
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			}
		} else {
			c.dupAcks = 0
			// After a timeout, an ACK below recover stops at the next hole
			// of the old window: repair it now, not one hole per timeout
			// (RFC 6582 §3.2 step 4).
			c.rtoRecovery = c.rtoRecovery && seqLT(ack, c.recover)
			if c.rtoRecovery {
				c.retransmitFirst()
			}
			// Appropriate Byte Counting (RFC 3465): grow by bytes newly
			// acknowledged, not per ACK, so the batched cumulative ACKs
			// the receiver now emits don't slow window growth.
			if c.cwnd < c.ssthresh {
				inc := acked
				if inc > 2*c.mss {
					inc = 2 * c.mss // slow start, L=2
				}
				c.cwnd += inc
			} else {
				c.cwnd += max(c.mss*acked/c.cwnd, 1) // congestion avoidance
			}
		}
		if c.io.inflight.Len() > 0 {
			c.armRTO()
		} else {
			c.disarmRTO()
			c.onAllAcked()
		}
		c.trySend()

	case ack == c.sndUna && len(seg.Payload) == 0 && seg.Flags&(FlagSYN|FlagFIN) == 0 &&
		c.io.inflight.Len() > 0 && !wndChanged:
		// Duplicate ACK (RFC 5681: same ack, no data, unchanged window).
		c.dupAcks++
		if c.fastRecovery {
			c.cwnd += c.mss // inflate
			c.trySend()
		} else if c.dupAcks == 3 {
			// Fast retransmit + fast recovery entry.
			c.st.mxFastRetransmits.Inc()
			if tr := c.st.tr; tr.Enabled() {
				tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "fast-retransmit", c.st.TracePid, 0,
					c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("seq", int64(c.sndUna)))...)
			}
			c.ssthresh = max(c.flightSize()/2, 2*c.mss)
			c.recover = c.sndNxt
			c.retransmitFirst()
			c.cwnd = c.ssthresh + 3*c.mss
			c.fastRecovery = true
		}
	}
}

// onAllAcked drives close-side state transitions once our FIN is acked.
func (c *Conn) onAllAcked() {
	if !c.finSent {
		return
	}
	switch c.state {
	case StateFinWait1:
		c.setState(StateFinWait2)
	case StateClosing:
		c.enterTimeWait()
	case StateLastAck:
		c.teardown(nil)
	}
}

func (c *Conn) processPayload(seg Segment) {
	p, io := c.st.Params, c.io
	switch {
	case seg.Seq == c.rcvNxt:
		if c.rcvLen+len(seg.Payload) > p.RcvBuf+p.MSS {
			// Receive buffer overrun beyond advertised window: drop.
			seg.releaseView()
			c.sendAck()
			return
		}
		// Zero-copy enqueue: the chain takes ownership of the payload
		// view (or aliases the heap slice on direct-injection paths).
		io.rcvChain.Push(rcvChunk{data: seg.Payload, view: seg.view})
		c.rcvLen += len(seg.Payload)
		c.rcvNxt += uint32(len(seg.Payload))
		// Pull any contiguous out-of-order segments in.
		for {
			data, ok := io.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(io.ooo, c.rcvNxt)
			io.rcvChain.Push(rcvChunk{data: data})
			c.rcvLen += len(data)
			c.rcvNxt += uint32(len(data))
		}
		c.wakeReaders()
		// ACK every second segment; the flush runs at the end of the
		// instant so one cumulative ACK covers a whole drained batch.
		c.segsSinceAck++
		if c.segsSinceAck >= 2 {
			c.scheduleAckFlush()
		} else {
			c.scheduleDelayedAck()
		}

	case seqLT(c.rcvNxt, seg.Seq):
		// Out of order: hold (copied — the hole may persist long past the
		// receive page's useful life) and send an immediate duplicate ACK
		// to trigger the sender's fast retransmit. Never batched: fast
		// retransmit counts individual duplicate ACKs.
		if _, dup := io.ooo[seg.Seq]; !dup && len(io.ooo) < 256 {
			if io.ooo == nil {
				io.ooo = map[uint32][]byte{}
			}
			io.ooo[seg.Seq] = append([]byte(nil), seg.Payload...)
		}
		seg.releaseView()
		c.sendAck()

	default:
		// Old/overlapping data: re-ACK.
		seg.releaseView()
		c.sendAck()
	}
}

func (c *Conn) processFin(seg Segment) {
	finSeq := seg.Seq + uint32(len(seg.Payload))
	if finSeq != c.rcvNxt {
		// FIN beyond a hole: ACK what we have; the peer retransmits.
		c.sendAck()
		return
	}
	if c.finRcvd {
		c.sendAck() // duplicate FIN
		return
	}
	c.finRcvd = true
	c.rcvNxt++
	c.wakeReaders()
	switch c.state {
	case StateEstablished:
		c.setState(StateCloseWait)
	case StateFinWait1:
		if c.finSent && c.sndUna == c.sndNxt {
			c.enterTimeWait()
		} else {
			c.setState(StateClosing)
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
	c.sendAck()
}

// enterTimeWait starts the 2MSL linger on the (now permanently idle) RTO
// timer slot and releases every buffer the connection still holds: both
// FINs are acked, so nothing can be retransmitted or received in order —
// a lingering connection costs its struct and its I/O part with empty
// queues, not pooled pages or send-buffer bytes.
func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.releaseBuffers()
	c.st.wheel.Schedule(&c.io.rtoTimer, c.st.S.K.Now().Add(c.st.Params.TimeWait))
}

// releaseBuffers drops send-side state, the out-of-order map and pooled
// receive pages. In-order data the application has not read yet stays
// readable: page-backed chunks are copied to the heap so their pages can
// go back to the pool immediately instead of after 2MSL.
func (c *Conn) releaseBuffers() {
	io := c.io
	io.drainBuffers()
	for i := 0; i < io.rcvChain.Len(); i++ {
		if ch := io.rcvChain.At(i); ch.view != nil {
			ch.data = append([]byte(nil), ch.data...)
			ch.view.Release()
			ch.view = nil
		}
	}
}
