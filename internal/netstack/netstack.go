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
	"repro/internal/dhcp"
	"repro/internal/ethernet"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Config is the interface configuration (static directives, or filled by
// DHCP when IP is zero).
type Config struct {
	MAC     ethernet.MAC
	IP      ipv4.Addr
	Netmask ipv4.Addr
	Gateway ipv4.Addr

	// VIP, when set, is a shared virtual service address (direct server
	// return behind a load balancer): the stack accepts packets addressed
	// to it and TCP speaks with the VIP as its local address, so replies
	// go straight to clients without traversing the balancer. ARP still
	// answers only for IP — the balancer owns the VIP's hardware address.
	VIP ipv4.Addr

	// TCPParams, when set, mutates the TCP parameters after the stack has
	// applied its defaults (an MSS that fills netif.MTU) — the configuration
	// seam experiments use to tune backlog, buffers or timers per guest.
	TCPParams func(*tcp.Params)
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
	txFlushes int        // txFlush events scheduled and not yet fired

	// Event callbacks, built once so scheduling one allocates nothing.
	txFlushFunc func()
	txFullFunc  func(burst any, _ uint64)
	rxEventFunc func(frame any, span uint64)

	// Stats
	RxPackets, TxPackets int
	RxDropped            int
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
	st.txFlushFunc, st.txFullFunc, st.rxEventFunc = st.txFlush, st.txFull, st.rxEvent
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
	tcpParams := tcp.DefaultParams()
	if cfg.TCPParams != nil {
		cfg.TCPParams(&tcpParams)
	}
	localIP := cfg.IP
	if cfg.VIP != 0 {
		localIP = cfg.VIP
	}
	st.TCP = tcp.NewStack(vm.S, localIP, tcpParams)
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
// work) are batched: each frame schedules a flush at its own completion
// instant. Those instants never decrease, so the events fire in the order
// they were scheduled and the one that finds no other outstanding is the
// burst's last: it alone flushes — so the whole burst enters the TX ring
// together and costs a single publish/notification. A lone frame flushes at
// exactly the same instant as the unbatched path did.
func (st *Stack) tx(page *cstruct.View, n int, span uint64) {
	at := st.VM.Dom.VCPU.Reserve(st.Params.TxCost)
	st.TxPackets++
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
	st.txFlushes++
	st.VM.S.K.At(at, st.txFlushFunc)
}

// txBurst is the frames of one burst with their trace ids, in parallel.
type txBurst struct {
	frames []*cstruct.View
	spans  []uint64
}

// txFlush is the flush event tx schedules per frame.
func (st *Stack) txFlush() {
	st.txFlushes--
	if st.txFlushes > 0 || st.txCur == nil {
		return // a later frame joined the burst, or a full batch already left
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
		if err != nil {
			st.RxDropped++
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
	return st.ARP.Cached(st.nextHop(dst))
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

// nextHop is dst itself on the local subnet, the gateway otherwise.
func (st *Stack) nextHop(dst ipv4.Addr) ipv4.Addr {
	if st.Cfg.Netmask != 0 && dst&st.Cfg.Netmask != st.Cfg.IP&st.Cfg.Netmask && st.Cfg.Gateway != 0 {
		return st.Cfg.Gateway
	}
	return dst
}

// resolveNextHop picks dst or the gateway and resolves its MAC.
func (st *Stack) resolveNextHop(dst ipv4.Addr, cb func(ethernet.MAC, error)) {
	if dst == ipv4.Broadcast {
		cb(ethernet.Broadcast, nil)
		return
	}
	st.ARP.Resolve(st.nextHop(dst), cb)
}

// rx is the receive upcall from the driver: parsing happens after the
// vCPU's per-packet work completes, then the run loop is re-entered. span
// is the frame's trace id from the RX descriptor (0 = untraced).
func (st *Stack) rx(v *cstruct.View, span uint64) {
	at := st.VM.Dom.VCPU.Reserve(st.Params.RxCost)
	st.VM.S.K.AtArg(at, st.rxEventFunc, v, span)
}

// rxEvent is the event rx schedules per frame; the event carries the frame.
func (st *Stack) rxEvent(frame any, span uint64) {
	st.rxNow(frame.(*cstruct.View), span)
	st.wake.Set()
}

func (st *Stack) rxNow(v *cstruct.View, span uint64) {
	st.RxPackets++
	if st.Params.CopyRX {
		// Ablation: the copying receive path of a conventional stack.
		copied := v.Copy()
		v.Release()
		v = copied
		st.VM.Dom.VCPU.Reserve(time.Duration(v.Len()/1024+1) * st.Params.CopyCost)
	}
	fr, err := ethernet.Parse(v)
	if err != nil {
		st.RxDropped++
		return
	}
	switch fr.Type {
	case ethernet.TypeARP:
		pkt, err := arp.Parse(fr.Payload)
		if err != nil {
			st.RxDropped++
			return
		}
		st.ARP.Input(pkt)
	case ethernet.TypeIPv4:
		st.rxIP(fr.Payload, span)
	default:
		fr.Payload.Release()
		st.RxDropped++
	}
}

func (st *Stack) rxIP(v *cstruct.View, span uint64) {
	h, payload, err := ipv4.Parse(v)
	if err != nil {
		st.RxDropped++
		v.Release()
		return
	}
	if h.Dst != st.Cfg.IP && h.Dst != ipv4.Broadcast && (st.Cfg.VIP == 0 || h.Dst != st.Cfg.VIP) {
		payload.Release()
		st.RxDropped++
		return
	}
	full, done := st.reasm.Input(h, payload)
	if !done {
		return
	}
	switch h.Proto {
	case ipv4.ProtoICMP:
		e, err := icmp.ParseEcho(full)
		if err != nil {
			st.RxDropped++
			return
		}
		st.ICMP.Input(h.Src, e)
	case ipv4.ProtoUDP:
		uh, data, err := udp.Parse(full)
		if err != nil {
			st.RxDropped++
			full.Release()
			return
		}
		st.UDP.Input(h.Src, uh, data)
	case ipv4.ProtoTCP:
		seg, err := tcp.Parse(h.Src, h.Dst, full)
		if err != nil {
			st.RxDropped++
			return
		}
		seg.Span = span // descriptor metadata, not parsed from wire bytes
		st.TCP.Input(h.Src, seg)
	default:
		full.Release()
		st.RxDropped++
	}
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

// ConfigureDHCP runs the DHCP client and resolves with the lease, applying
// it to the stack configuration (the dynamic-configuration directive of
// §2.3.1).
func (st *Stack) ConfigureDHCP(xid uint32) *lwt.Promise[dhcp.Lease] {
	pr := lwt.NewPromise[dhcp.Lease](st.VM.S)
	client := &dhcp.Client{HW: st.Cfg.MAC, XID: xid}
	client.Send = func(m dhcp.Message) {
		buf := cstruct.Make(1024)
		n := dhcp.Encode(buf, m)
		st.SendUDP(ipv4.Broadcast, dhcp.ServerPort, dhcp.ClientPort, buf.Slice(0, n))
	}
	client.OnLease = func(l dhcp.Lease) {
		st.Cfg.IP = l.IP
		st.Cfg.Netmask = l.Netmask
		st.Cfg.Gateway = l.Gateway
		st.ARP.MyIP = l.IP
		st.TCP.LocalIP = l.IP
		st.UDP.Unbind(dhcp.ClientPort)
		if !pr.Completed() {
			pr.Resolve(l)
		}
	}
	if err := st.UDP.Bind(dhcp.ClientPort, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
		m, err := dhcp.Parse(data)
		if err != nil {
			return
		}
		client.Input(m)
	}); err != nil {
		pr.Fail(err)
		return pr
	}
	client.Start()
	return pr
}

// String summarises the stack configuration.
func (st *Stack) String() string {
	return fmt.Sprintf("netstack %v ip=%v mask=%v gw=%v mtu=%d",
		st.Cfg.MAC, st.Cfg.IP, st.Cfg.Netmask, st.Cfg.Gateway, netif.MTU)
}
