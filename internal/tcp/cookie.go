package tcp

// SYN cookies (RFC 4987 shape): when a listener's SYN backlog is full, the
// stack answers the SYN with a SYN|ACK whose initial sequence number *is*
// the half-open state — a keyed hash over the 4-tuple, the client's ISN and
// a coarse epoch, plus the peer options the server must remember (MSS
// bucket, window scale) packed into the low byte. No connection object
// exists until the handshake-completing ACK returns a number only we could
// have minted; a flood of SYNs therefore costs the victim nothing but
// replies.
//
// ISN layout:  [ 24-bit keyed hash | 3-bit MSS index | 4-bit wscale | 1-bit wsOK ]
//
// The hash covers the low options byte too, so a client cannot forge better
// options than it offered. Cookies remain valid for the current and the
// previous epoch (64s each), bounding replay the same way Linux does.

import (
	"time"

	"repro/internal/ipv4"
	"repro/internal/obs"
)

// cookieMSS buckets the peer's MSS into 3 bits. Values are common wire
// MSSes; encode picks the largest bucket not exceeding the offer.
var cookieMSS = [8]int{536, 1160, 1400, 1440, 1460, 2960, 4380, 8960}

// cookieEpoch is the cookie validity quantum of virtual time.
const cookieEpoch = 64 * time.Second

// mix64 is a splitmix64-style finalizer: cheap, deterministic, and good
// enough to make cookie forgery a 1-in-2^24 guess per ACK.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cookieHash returns the 24-bit authenticator over everything the cookie
// binds: the stack secret, 4-tuple, client ISN, epoch and options byte.
func (st *Stack) cookieHash(src ipv4.Addr, srcPort, dstPort uint16, clientISS uint32, epoch uint64, opts uint8) uint32 {
	h := mix64(st.secret ^ uint64(src)<<32 ^ uint64(srcPort)<<16 ^ uint64(dstPort))
	h = mix64(h ^ uint64(clientISS)<<8 ^ epoch<<40 ^ uint64(opts))
	return uint32(h) >> 8 // 24 bits
}

// encodeCookie mints the ISN for a stateless SYN|ACK to the given SYN.
func (st *Stack) encodeCookie(src ipv4.Addr, seg Segment) uint32 {
	peerMSS := 536
	if seg.MSS != 0 {
		peerMSS = int(seg.MSS)
	}
	mssIdx := 0
	for i, m := range cookieMSS {
		if m <= peerMSS {
			mssIdx = i
		}
	}
	opts := uint8(mssIdx) << 5
	if seg.WndScale >= 0 {
		opts |= uint8(seg.WndScale&0xf)<<1 | 1
	}
	epoch := uint64(st.S.K.Now()) / uint64(cookieEpoch)
	hash := st.cookieHash(src, seg.SrcPort, seg.DstPort, seg.Seq, epoch, opts)
	return hash<<8 | uint32(opts)
}

// decodeCookie validates a cookie returned in an ACK (ack-1) against the
// current and previous epoch, returning the peer MSS and window scale it
// encodes. ok is false when the authenticator matches neither epoch.
func (st *Stack) decodeCookie(src ipv4.Addr, srcPort, dstPort uint16, clientISS, cookie uint32) (mss, wscale int, ok bool) {
	opts := uint8(cookie)
	epoch := uint64(st.S.K.Now()) / uint64(cookieEpoch)
	for back := uint64(0); back <= 1 && !ok; back++ {
		if back > epoch {
			break
		}
		ok = st.cookieHash(src, srcPort, dstPort, clientISS, epoch-back, opts) == cookie>>8
	}
	if !ok {
		return 0, -1, false
	}
	mss = cookieMSS[opts>>5]
	wscale = -1
	if opts&1 != 0 {
		wscale = int(opts >> 1 & 0xf)
	}
	return mss, wscale, true
}

// sendSynCookie answers a SYN past the backlog cap with a stateless cookie
// SYN|ACK. Nothing is recorded: if the SYN|ACK is lost the client's
// retransmitted SYN mints a fresh cookie.
func (st *Stack) sendSynCookie(src ipv4.Addr, seg Segment) {
	w := st.Params.RcvBuf
	if w > 0xffff {
		w = 0xffff // a SYN's window field is never scaled
	}
	out := Segment{
		SrcPort: seg.DstPort, DstPort: seg.SrcPort,
		Seq: st.encodeCookie(src, seg), Ack: seg.Seq + 1,
		Flags:  FlagSYN | FlagACK,
		Window: uint16(w),
		MSS:    uint16(st.Params.MSS), WndScale: wndScale,
		Span: seg.Span,
	}
	st.mxCookiesSent.Inc()
	st.mxSegsOut.Inc()
	if st.tr.Enabled() {
		st.tr.Instant(obs.Time(st.S.K.Now()), "tcp", "syn-cookie-sent", st.TracePid, 0,
			obs.Int("port", int64(seg.DstPort)))
	}
	st.Output(src, out)
}

// acceptCookie tries to complete a stateless handshake from an ACK that
// matched no connection. On a valid cookie the connection materialises
// directly in Established — exactly as if the SynRcvd state had existed —
// and any payload or FIN riding the ACK is processed. It reports whether
// the segment was consumed.
func (st *Stack) acceptCookie(l *Listener, src ipv4.Addr, seg Segment) bool {
	cookie := seg.Ack - 1
	mss, wscale, ok := st.decodeCookie(src, seg.SrcPort, seg.DstPort, seg.Seq-1, cookie)
	if !ok {
		return false
	}
	key := connKey{seg.DstPort, src, seg.SrcPort}
	c := newConn(st, key)
	c.listener = l
	c.span = seg.Span
	c.iss = cookie
	c.sndUna, c.sndNxt = cookie+1, cookie+1
	c.irs = seg.Seq - 1
	c.rcvNxt = seg.Seq
	if mss < c.mss {
		c.mss = mss
	}
	c.peerWndScale = wscale
	scale := 0
	if wscale >= 0 {
		scale = wscale
	} else {
		c.myWndScale = 0 // scaling is all-or-nothing
	}
	// The completing ACK's window is already scaled (scaling applies to
	// everything after the SYN exchange).
	c.sndWnd = int(seg.Window) << uint(scale)
	c.sndWL1, c.sndWL2 = seg.Seq, seg.Ack
	c.setState(StateEstablished)
	st.conns[key] = c
	st.mxCookiesValid.Inc()
	if st.tr.Enabled() {
		st.tr.Instant(obs.Time(st.S.K.Now()), "tcp", "syn-cookie-ok", st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(seg.DstPort)))...)
	}
	l.deliver(c)
	if len(seg.Payload) > 0 || seg.Flags&FlagFIN != 0 {
		c.use()
		c.inputData(seg)
		c.settle()
	} else {
		seg.releaseView()
	}
	return true
}
