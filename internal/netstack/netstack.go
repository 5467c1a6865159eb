// Package netstack assembles the clean-slate protocol libraries into one
// network stack over a netif frontend (paper §3.5.1): Ethernet demux, ARP,
// IPv4 with fragmentation/reassembly, ICMP echo, UDP and TCP. An
// application links against exactly this stack — there is no kernel/user
// boundary, and received data flows to handlers as zero-copy sub-views.
//
// The stack charges an explicit per-packet cost to the guest vCPU for
// type-safe parsing and header construction; the constants encode the
// paper's observation (§4.1.3) that pervasive type-safety costs a few
// percent over C parsing.
package netstack

import (
	"fmt"
	"time"

	"repro/internal/arp"
	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Config is the interface configuration (static directives).
type Config struct {
	MAC     ethernet.MAC
	IP      ipv4.Addr
	Netmask ipv4.Addr

	// VIP, when set, is a shared virtual service address (direct server
	// return behind a load balancer): the stack accepts packets addressed
	// to it and TCP speaks with the VIP as its local address, so replies
	// go straight to clients without traversing the balancer. ARP still
	// answers only for IP — the balancer owns the VIP's hardware address.
	VIP ipv4.Addr
}

// Params are the stack's per-packet cost constants.
type Params struct {
	// RxCost is charged per received packet (type-safe parse). The
	// Mirage value is a few percent above a C stack's, per §4.1.3.
	RxCost time.Duration
	// TxCost is charged per transmitted packet (header construction).
	TxCost time.Duration
	// CopyRX disables the zero-copy receive path: each frame is copied
	// out of its I/O page into a fresh buffer on arrival (what a
	// conventional kernel/userspace boundary forces, §3.4.1), paying
	// CopyCost per KB.
	CopyRX   bool
	CopyCost time.Duration
}

// DefaultParams returns the unikernel stack costs.
func DefaultParams() Params {
	return Params{RxCost: 650 * time.Nanosecond, TxCost: 750 * time.Nanosecond}
}

// Stack is a configured unikernel network stack.
type Stack struct {
	VM     *pvboot.VM
	NIC    *netif.Netif
	Cfg    Config
	Params Params

	ARP  *arp.Handler
	ICMP *icmp.Handler
	UDP  *udp.Mux
	TCP  *tcp.Stack

	reasm *ipv4.Reassembler
	ipID  uint16
	wake  *sim.Signal // re-enters the run loop after deferred processing

	txCur     *txBurst   // frames built this burst, awaiting one flush
	txFree    []*txBurst // drained bursts, reused with their backing arrays
	txFlushAt sim.Flush  // sends txCur once its last frame is built

	// Event callbacks, built once so scheduling one allocates nothing.
	txFullFunc  func(burst any, _ uint64)
	rxEventFunc func(frame any, span uint64)
}

// New builds a stack over nif with static configuration cfg.
func New(vm *pvboot.VM, nif *netif.Netif, cfg Config) *Stack {
	st := &Stack{
		VM:     vm,
		NIC:    nif,
		Cfg:    cfg,
		Params: DefaultParams(),
		UDP:    udp.NewMux(),
		reasm:  ipv4.NewReassembler(),
	}
	st.txFullFunc, st.rxEventFunc = st.txFull, st.rxEvent
	st.txFlushAt.Init(func(owner any) { owner.(*Stack).txFlush() }, st)
	st.wake = vm.S.K.NewSignal("netstack-wake")
	vm.S.OnSignal(st.wake, func() {})
	st.ARP = arp.NewHandler(vm.S, cfg.IP, cfg.MAC)
	st.ARP.Output = func(dst ethernet.MAC, pkt arp.Packet) {
		page := vm.Dom.Pool.Get()
		ethernet.Encode(page, dst, cfg.MAC, ethernet.TypeARP)
		body := page.Sub(ethernet.HeaderLen, arp.PacketLen)
		arp.Encode(body, pkt)
		body.Release()
		st.tx(page, ethernet.HeaderLen+arp.PacketLen, 0)
	}
	st.ICMP = &icmp.Handler{}
	st.ICMP.Output = func(dst ipv4.Addr, e icmp.Echo) {
		st.SendIP(dst, ipv4.ProtoICMP, icmp.HeaderLen+len(e.Payload), func(v *cstruct.View) int {
			return icmp.EncodeEcho(v, e)
		})
	}
	localIP := cfg.IP
	if cfg.VIP != 0 {
		localIP = cfg.VIP
	}
	st.TCP = tcp.NewStack(vm.S, localIP, tcp.DefaultParams())
	st.TCP.TracePid = vm.Dom.ID
	if k := vm.S.K; k.Trace().Enabled() {
		k.Trace().Instant(k.TraceTime(), "tcp", "stack-init", vm.Dom.ID, 0,
			obs.Str("ip", localIP.String()))
	}
	st.TCP.Output = func(dst ipv4.Addr, seg tcp.Segment) {
		if mac, ok := st.direct(dst, seg.WireLen()); ok {
			page, body := st.openFrame(seg.WireLen())
			st.sendFrame(page, body, tcp.Encode(body, localIP, dst, seg), mac, localIP, dst, ipv4.ProtoTCP, seg.Span)
			return
		}
		st.sendIPSpan(localIP, dst, ipv4.ProtoTCP, seg.WireLen(), seg.Span, func(v *cstruct.View) int {
			return tcp.Encode(v, localIP, dst, seg)
		})
	}
	nif.SetReceiver(st.rx)
	return st
}

// txBatchMax caps how many frames accumulate before an unconditional
// flush, bounding the extra latency the first frame of a long burst pays.
const txBatchMax = 16

// tx transmits the first n bytes of page as one frame, releasing the
// caller's page reference. The frame leaves once the vCPU has done the
// header-construction work, so per-packet cost is visible as latency.
//
// Frames built in one burst (before the vCPU finishes their construction
// work) are batched: each frame arms the flush again at its own completion
// instant, so only the burst's last frame's event flushes — the whole burst
// enters the TX ring together and costs a single publish/notification. A
// lone frame flushes at exactly the same instant as the unbatched path did.
func (st *Stack) tx(page *cstruct.View, n int, span uint64) {
	at := st.VM.Dom.VCPU.Reserve(st.Params.TxCost)
	frame := page.Sub(0, n)
	page.Release()
	b := st.txCur
	if b == nil {
		if last := len(st.txFree) - 1; last >= 0 {
			b, st.txFree = st.txFree[last], st.txFree[:last]
		} else {
			b = &txBurst{frames: make([]*cstruct.View, 0, txBatchMax), spans: make([]uint64, 0, txBatchMax)}
		}
		st.txCur = b
	}
	b.frames = append(b.frames, frame)
	b.spans = append(b.spans, span)
	if len(b.frames) >= txBatchMax {
		st.txCur = nil
		st.VM.S.K.AtArg(at, st.txFullFunc, b, 0)
		return
	}
	st.txFlushAt.Arm(st.VM.S.K, at)
}

// txBurst is the frames of one burst with their trace ids, in parallel.
type txBurst struct {
	frames []*cstruct.View
	spans  []uint64
}

// txFlush sends the burst the last frame's flush event finds.
func (st *Stack) txFlush() {
	if st.txCur == nil {
		return // a full batch already left
	}
	b := st.txCur
	st.txCur = nil
	st.sendBurst(b)
}

// txFull is the event tx schedules for a burst that reached txBatchMax; the
// event carries the burst.
func (st *Stack) txFull(burst any, _ uint64) { st.sendBurst(burst.(*txBurst)) }

// sendBurst hands a drained burst to the NIC, then parks it for reuse
// (SendFrames does not retain the slices).
func (st *Stack) sendBurst(b *txBurst) {
	st.NIC.SendFrames(b.frames, b.spans)
	clear(b.frames)
	b.frames, b.spans = b.frames[:0], b.spans[:0]
	st.txFree = append(st.txFree, b)
}

// SendIP sends one IP packet: build writes the transport payload (at most
// maxLen bytes) into the view it is given and returns the actual length.
// Payloads exceeding the MTU are fragmented (the extra copy is charged).
func (st *Stack) SendIP(dst ipv4.Addr, proto uint8, maxLen int, build func(*cstruct.View) int) {
	st.sendIPSpan(st.Cfg.IP, dst, proto, maxLen, 0, build)
}

// sendIPSpan is SendIP with an explicit source address (the VIP path) and a
// trace id carried as frame metadata (0 = untraced).
func (st *Stack) sendIPSpan(src ipv4.Addr, dst ipv4.Addr, proto uint8, maxLen int, span uint64, build func(*cstruct.View) int) {
	st.resolveNextHop(dst, func(mac ethernet.MAC, err error) {
		if err != nil { // a send failure, counted beside rxEvent's drops
			st.VM.S.K.Metrics().Counter("net_drops_total", obs.L("dev", fmt.Sprintf("vif%d", st.VM.Dom.ID)),
				obs.L("dir", "tx"), obs.L("reason", "unresolved")).Inc()
			return
		}
		if st.fitsOneFrame(maxLen) {
			// Fast path: single frame, payload built in place.
			page, body := st.openFrame(maxLen)
			st.sendFrame(page, body, build(body), mac, src, dst, proto, span)
			return
		}
		// Slow path: build into scratch, then fragment.
		st.ipID++
		id := st.ipID
		scratch := cstruct.Make(maxLen)
		n := build(scratch)
		for _, fr := range ipv4.PlanFragments(n, netif.MTU) {
			page := st.VM.Dom.Pool.Get()
			ethernet.Encode(page, mac, st.Cfg.MAC, ethernet.TypeIPv4)
			iph := page.Sub(ethernet.HeaderLen, ipv4.HeaderLen)
			ipv4.Encode(iph, ipv4.Header{ID: id, Proto: proto, Src: src, Dst: dst,
				MoreFrags: fr.More, FragOffset: fr.Offset}, fr.Len)
			iph.Release()
			page.PutBytes(frameHdr, scratch.Slice(fr.Offset, fr.Len))
			st.tx(page, frameHdr+fr.Len, span)
		}
	})
}

// frameHdr is what precedes the transport payload in a frame.
const frameHdr = ethernet.HeaderLen + ipv4.HeaderLen

// fitsOneFrame reports whether maxLen transport bytes go out unfragmented,
// built in place in one I/O page.
func (st *Stack) fitsOneFrame(maxLen int) bool {
	return maxLen+frameHdr <= cstruct.PageSize && maxLen+ipv4.HeaderLen <= netif.MTU
}

// direct reports whether a packet of maxLen transport bytes for dst can be
// built and sent right now with no callback — one frame, next hop already
// resolved — and the hop's MAC if so. It is the common case of every send;
// the callers keep SendIP's callback form for the rest (an ARP exchange to
// wait for, or fragmentation).
func (st *Stack) direct(dst ipv4.Addr, maxLen int) (ethernet.MAC, bool) {
	if !st.fitsOneFrame(maxLen) {
		return ethernet.MAC{}, false
	}
	if dst == ipv4.Broadcast {
		return ethernet.Broadcast, true
	}
	return st.ARP.Cached(dst)
}

// openFrame takes an I/O page for a single-frame packet and returns it with
// the window the transport payload (at most maxLen bytes) is built into.
func (st *Stack) openFrame(maxLen int) (page, body *cstruct.View) {
	page = st.VM.Dom.Pool.Get()
	return page, page.Sub(frameHdr, maxLen)
}

// sendFrame completes a frame begun with openFrame — n payload bytes now
// sit in body — with its Ethernet and IP headers and transmits it.
func (st *Stack) sendFrame(page, body *cstruct.View, n int, mac ethernet.MAC, src, dst ipv4.Addr, proto uint8, span uint64) {
	body.Release()
	st.ipID++
	ethernet.Encode(page, mac, st.Cfg.MAC, ethernet.TypeIPv4)
	iph := page.Sub(ethernet.HeaderLen, ipv4.HeaderLen)
	ipv4.Encode(iph, ipv4.Header{ID: st.ipID, Proto: proto, Src: src, Dst: dst}, n)
	iph.Release()
	st.tx(page, frameHdr+n, span)
}

// resolveNextHop resolves dst's MAC: every destination is on the local
// segment, since the stack has no gateway.
func (st *Stack) resolveNextHop(dst ipv4.Addr, cb func(ethernet.MAC, error)) {
	if dst == ipv4.Broadcast {
		cb(ethernet.Broadcast, nil)
		return
	}
	st.ARP.Resolve(dst, cb)
}

// rx is the receive upcall from the driver: parsing happens after the
// vCPU's per-packet work completes, then the run loop is re-entered. span
// is the frame's trace id from the RX descriptor (0 = untraced).
func (st *Stack) rx(v *cstruct.View, span uint64) {
	at := st.VM.Dom.VCPU.Reserve(st.Params.RxCost)
	st.VM.S.K.AtArg(at, st.rxEventFunc, v, span)
}

// rxEvent is the event rx schedules per frame; the event carries the frame.
// A frame the stack refuses — one it cannot parse or that is not for it — is
// counted in net_drops_total{dir=rx} by the reason rxNow gives; a send whose
// next hop does not resolve is counted with dir=tx. Each counter is created
// at its first drop, so a run without one dumps no row.
func (st *Stack) rxEvent(frame any, span uint64) {
	if reason := st.rxNow(frame.(*cstruct.View), span); reason != "" {
		st.VM.S.K.Metrics().Counter("net_drops_total", obs.L("dev", fmt.Sprintf("vif%d", st.VM.Dom.ID)),
			obs.L("dir", "rx"), obs.L("reason", reason)).Inc()
	}
	st.wake.Set()
}

// rxNow processes one received frame and returns why it was dropped, or ""
// if it was not.
func (st *Stack) rxNow(v *cstruct.View, span uint64) (drop string) {
	if st.Params.CopyRX {
		// Ablation: the copying receive path of a conventional stack.
		copied := v.Copy()
		v.Release()
		v = copied
		st.VM.Dom.VCPU.Reserve(time.Duration(v.Len()/1024+1) * st.Params.CopyCost)
	}
	fr, err := ethernet.Parse(v)
	if err != nil {
		return "ethernet"
	}
	switch fr.Type {
	case ethernet.TypeARP:
		pkt, err := arp.Parse(fr.Payload)
		if err != nil {
			return "arp"
		}
		st.ARP.Input(pkt)
	case ethernet.TypeIPv4:
		return st.rxIP(fr.Payload, span)
	default:
		fr.Payload.Release()
		return "ethertype"
	}
	return ""
}

// rxIP is rxNow for an IPv4 packet.
func (st *Stack) rxIP(v *cstruct.View, span uint64) (drop string) {
	h, payload, err := ipv4.Parse(v)
	if err != nil {
		v.Release()
		return "ipv4"
	}
	if h.Dst != st.Cfg.IP && h.Dst != ipv4.Broadcast && (st.Cfg.VIP == 0 || h.Dst != st.Cfg.VIP) {
		payload.Release()
		return "not_local"
	}
	full, done := st.reasm.Input(h, payload)
	if !done {
		return ""
	}
	switch h.Proto {
	case ipv4.ProtoICMP:
		e, err := icmp.ParseEcho(full)
		if err != nil {
			return "icmp"
		}
		st.ICMP.Input(h.Src, e)
	case ipv4.ProtoUDP:
		uh, data, err := udp.Parse(full)
		if err != nil {
			full.Release()
			return "udp"
		}
		st.UDP.Input(h.Src, uh, data)
	case ipv4.ProtoTCP:
		seg, err := tcp.Parse(h.Src, h.Dst, full)
		if err != nil {
			return "tcp"
		}
		seg.Span = span // descriptor metadata, not parsed from wire bytes
		st.TCP.Input(h.Src, seg)
	default:
		full.Release()
		return "proto"
	}
	return ""
}

// SendUDP transmits a datagram.
func (st *Stack) SendUDP(dst ipv4.Addr, dstPort, srcPort uint16, payload []byte) {
	n := udp.HeaderLen + len(payload)
	if mac, ok := st.direct(dst, n); ok {
		page, body := st.openFrame(n)
		udp.Encode(body, srcPort, dstPort, len(payload))
		body.PutBytes(udp.HeaderLen, payload)
		st.sendFrame(page, body, n, mac, st.Cfg.IP, dst, ipv4.ProtoUDP, 0)
		return
	}
	st.SendIP(dst, ipv4.ProtoUDP, n, func(v *cstruct.View) int {
		udp.Encode(v, srcPort, dstPort, len(payload))
		v.PutBytes(udp.HeaderLen, payload)
		return udp.HeaderLen + len(payload)
	})
}

// Ping sends one echo request.
func (st *Stack) Ping(dst ipv4.Addr, id, seq uint16, payload []byte) {
	st.ICMP.Output(dst, icmp.Echo{Type: icmp.TypeEchoRequest, ID: id, Seq: seq, Payload: payload})
}

// String summarises the stack configuration.
func (st *Stack) String() string {
	return fmt.Sprintf("netstack %v ip=%v mask=%v mtu=%d",
		st.Cfg.MAC, st.Cfg.IP, st.Cfg.Netmask, netif.MTU)
}
