// Package netback models the network backend of the driver domain (paper
// §3.4): a software bridge that connects per-guest VIF backends and charges
// realistic costs — per-packet backend CPU work on the control domain's
// processor and per-byte serialisation on the link — before delivering
// frames. Backends multiplex frontend requests exactly as Xen's netback
// does: TX requests are grant-copied out of guest pages, RX frames are
// copied into pages the guest posted in advance.
package netback

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cstruct"
	"repro/internal/ethernet"
	"repro/internal/fifo"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sim"
)

// Endpoint is an attachment point on a bridge. Deliver is invoked in
// simulation-kernel context when a frame arrives for the endpoint's MAC.
// The endpoint receives one reference to the (immutable) frame buffer and
// must Release it when done.
type Endpoint interface {
	MAC() ethernet.MAC
	Deliver(frame *bufpool.Buf)
}

// frameBufSize bounds one assembled Ethernet frame (MTU + headers, rounded
// up to a power of two).
const frameBufSize = 2048

// Uplink is the bridge's seam to a wider network: when a host bridge
// belongs to a multi-host fabric (internal/datacenter), a frame from a local
// endpoint that no local port owns — unknown unicast, a broadcast, or a
// balancer's steer to a MAC homed elsewhere — is handed up at the instant it
// clears the bridge. dst is the destination the bridge routed on (the
// header's for a transmitted frame, the balancer's choice for a steered
// one). The uplink consumes the frame reference. A bridge with no uplink
// counts unknown unicast in bridge_no_route_total and keeps broadcasts
// host-local.
type Uplink func(src, dst ethernet.MAC, steer bool, f *bufpool.Buf)

// Faults is the bridge's deterministic network-impairment model. Every
// probability is evaluated per delivery (so a broadcast frame is impaired
// independently per destination) using the kernel's seeded RNG: same-seed
// runs inject the same faults at the same instants. When every field is
// zero no RNG draw is made at all, so fault-free runs are byte-identical
// to runs of a build without the impairment layer.
type Faults struct {
	// Drop is the probability a frame is discarded in transit.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Reorder is the probability a frame is held back by up to
	// DefaultReorderWindow, letting frames queued behind it overtake.
	Reorder float64
	// Jitter adds a uniform random delay in [0, Jitter] to every delivery.
	Jitter time.Duration
}

// DefaultReorderWindow holds a reordered frame back long enough for
// several full-size frames to overtake it at the default line rate.
const DefaultReorderWindow = 200 * time.Microsecond

// enabled reports whether any impairment is configured.
func (f Faults) enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Reorder > 0 || f.Jitter > 0
}

// Bridge is the dom0 software bridge.
type Bridge struct {
	K    *sim.Kernel
	CPU  *sim.CPU // backend packet-processing CPU
	Wire *sim.CPU // serialisation resource (line rate)

	endpoints map[ethernet.MAC]*port
	down      map[ethernet.MAC]bool // administratively-down ports: frames from them are discarded
	uplink    Uplink                // nil unless the bridge joins a multi-host fabric
	faults    Faults
	pool      *bufpool.Pool // frame staging buffers (VIF TX assembly)

	mxForwarded    *obs.Counter
	mxFlooded      *obs.Counter
	mxSteered      *obs.Counter
	mxBytes        *obs.Counter
	mxFaultDrop    *obs.Counter
	mxFaultDup     *obs.Counter
	mxFaultReorder *obs.Counter
	mxFaultJitter  *obs.Counter
	mxNotifyTx     *obs.Counter   // backend->frontend notifications, TX acks
	mxNotifyRx     *obs.Counter   // backend->frontend notifications, RX frames
	mxBatchTx      *obs.Histogram // TX requests drained per backend wakeup
	mxBatchRx      *obs.Histogram // RX responses published per notification
}

// NewBridgeNamed creates a bridge with its own backend CPU and link
// resources. prefix names them on multi-host platforms; an empty prefix
// keeps the historical single-host names.
func NewBridgeNamed(k *sim.Kernel, prefix string) *Bridge {
	cpuName, wireName := "dom0-netback", "bridge-link"
	if prefix != "" {
		cpuName, wireName = prefix+"-netback", prefix+"-link"
	}
	m := k.Metrics()
	batchBounds := []float64{1, 2, 4, 8, 16, 32}
	pool := bufpool.NewPool(frameBufSize)
	return &Bridge{
		K:              k,
		CPU:            k.NewCPU(cpuName),
		Wire:           k.NewCPU(wireName),
		endpoints:      map[ethernet.MAC]*port{},
		down:           map[ethernet.MAC]bool{},
		pool:           pool,
		mxForwarded:    m.Counter("bridge_frames_total", obs.L("kind", "forwarded")),
		mxFlooded:      m.Counter("bridge_frames_total", obs.L("kind", "flooded")),
		mxSteered:      m.Counter("bridge_frames_total", obs.L("kind", "steered")),
		mxBytes:        m.Counter("bridge_bytes_total"),
		mxFaultDrop:    m.Counter("bridge_faults_total", obs.L("kind", "drop")),
		mxFaultDup:     m.Counter("bridge_faults_total", obs.L("kind", "dup")),
		mxFaultReorder: m.Counter("bridge_faults_total", obs.L("kind", "reorder")),
		mxFaultJitter:  m.Counter("bridge_faults_total", obs.L("kind", "jitter")),
		mxNotifyTx:     m.Counter("bridge_notifications_total", obs.L("dir", "tx")),
		mxNotifyRx:     m.Counter("bridge_notifications_total", obs.L("dir", "rx")),
		mxBatchTx:      m.Histogram("ring_batch_size", batchBounds, obs.L("ring", "tx")),
		mxBatchRx:      m.Histogram("ring_batch_size", batchBounds, obs.L("ring", "rx")),
	}
}

// Attach connects an endpoint whose Deliver runs on the home kernel (the
// bridge's own, or a guest's on another pCPU shard, into which the bridge
// posts deliveries). Re-attaching a MAC brings a previously downed port
// back up.
func (b *Bridge) Attach(e Endpoint, home *sim.Kernel) {
	b.endpoints[e.MAC()] = &port{ep: e, home: home,
		deliver: func(frame any, _ uint64) { e.Deliver(frame.(*bufpool.Buf)) }}
	delete(b.down, e.MAC())
}

// port is an attached endpoint and what the bridge needs per frame toward
// it, worked out once at Attach: the kernel its Deliver runs on and the
// callback a delivery event (sim.Kernel.AtArg, the frame as its argument)
// invokes — so forwarding a frame builds no closure.
type port struct {
	ep      Endpoint
	home    *sim.Kernel
	deliver func(frame any, _ uint64)
}

// DetachMAC takes the port for mac down: frames toward it no longer route,
// and frames *from* it are discarded at the bridge, counted in
// bridge_port_down_drops_total. This models unplugging a crashed or retired
// guest whose domain — and backend handler — may still be running: the guest
// can keep transmitting into the dead port without reaching anyone.
func (b *Bridge) DetachMAC(mac ethernet.MAC) {
	if _, ok := b.endpoints[mac]; ok {
		delete(b.endpoints, mac)
		b.down[mac] = true
	}
}

// SetUplink joins the bridge to a wider fabric: frames for MACs with no
// local port are handed to u instead of being dropped, and broadcasts
// flood beyond the host. Passing nil restores the isolated-host behavior.
func (b *Bridge) SetUplink(u Uplink) { b.uplink = u }

// SetFaults installs the bridge-wide impairment model.
func (b *Bridge) SetFaults(f Faults) { b.faults = f }

// charge books one n-byte frame's traversal of the bridge — backend CPU work
// and link serialisation — counts its bytes, and returns the instant it
// clears the bridge.
func (b *Bridge) charge(n int) sim.Time {
	b.mxBytes.Add(int64(n))
	return bridgeLink.Reserve(b.CPU, b.Wire, n)
}

// Transmit forwards a frame from src onto the bridge. The destination MAC
// is read from the frame header (first six bytes). The caller yields its
// reference to the frame buffer.
func (b *Bridge) Transmit(src ethernet.MAC, f *bufpool.Buf) {
	frame := f.Bytes()
	down := b.down[src]
	if down {
		b.K.Metrics().Counter("bridge_port_down_drops_total").Inc()
	}
	if len(frame) < 14 || down {
		f.Release()
		return
	}
	b.forward(src, ethernet.MAC(frame[0:6]), false, true, f)
}

// Steer forwards a frame to the endpoint owning dst regardless of the
// frame's embedded destination MAC — the L2 redirection primitive a
// virtual load balancer in the bridge path uses to hand a connection's
// packets to the replica chosen for it, without rewriting the frame. The
// balancer is the sender, so there is no source port to leave out. The
// caller yields its frame reference.
func (b *Bridge) Steer(dst ethernet.MAC, f *bufpool.Buf) {
	b.forward(ethernet.MAC{}, dst, true, true, f)
}

// Inject delivers a frame the fabric carried in toward dst (steered when
// steer is set) to this bridge's local ports only: it is the receive half
// of the Uplink seam and never re-uplinks, so a frame cannot loop between
// bridges. The fabric already charged its own hops. The source MAC, which
// a broadcast does not flood back to, is read from the frame header.
// Consumes the caller's frame reference.
func (b *Bridge) Inject(dst ethernet.MAC, steer bool, f *bufpool.Buf) {
	frame := f.Bytes()
	if len(frame) < 14 {
		f.Release()
		return
	}
	b.forward(ethernet.MAC(frame[6:12]), dst, steer, false, f)
}

// forward is the bridge's one path: it charges the frame's traversal and
// delivers it to dst's port, or floods a broadcast to every local port but
// src. A frame from a local endpoint (local) that no port owns goes to the
// uplink once it has cleared the bridge; anything else no port owns is
// dropped and counted in bridge_no_route_total, created at the first such
// drop. A delivery hands one reference to the endpoint (broadcast and
// duplicate deliveries retain the shared buffer rather than copying it —
// the frame is immutable once transmitted). Consumes the caller's ref.
func (b *Bridge) forward(src, dst ethernet.MAC, steer, local bool, f *bufpool.Buf) {
	at := b.charge(f.Len())
	pt, ok := b.endpoints[dst]
	bcast := dst == ethernet.Broadcast
	up := b.uplink
	if !local {
		up = nil
	}
	if !ok && !bcast && up == nil {
		b.K.Metrics().Counter("bridge_no_route_total").Inc()
		f.Release()
		return
	}
	switch {
	case bcast:
		b.mxFlooded.Inc()
		b.floodLocal(src, at, f.Retain())
	case steer:
		b.mxSteered.Inc()
	case ok:
		b.mxForwarded.Inc()
	}
	if ok {
		if tr := b.K.Trace(); local && tr.Enabled() {
			name := "bridge-fwd"
			if steer {
				name = "bridge-steer"
			}
			tr.Instant(b.K.TraceTime(), "net", name, 0, 0,
				obs.Str("dst", dst.String()), obs.Int("bytes", int64(f.Len())))
		}
		b.deliver(dst, pt, at, f)
		return
	}
	if up == nil {
		f.Release()
		return
	}
	b.K.At(at, func() { up(src, dst, steer, f) })
}

// floodLocal delivers one broadcast reference to every local endpoint but
// the source, in MAC order (map iteration order would make event sequencing
// and traces differ between identical runs). Consumes the caller's ref.
func (b *Bridge) floodLocal(src ethernet.MAC, at sim.Time, f *bufpool.Buf) {
	macs := make([]ethernet.MAC, 0, len(b.endpoints))
	for mac := range b.endpoints {
		if mac != src {
			macs = append(macs, mac)
		}
	}
	sort.Slice(macs, func(i, j int) bool { return bytes.Compare(macs[i][:], macs[j][:]) < 0 })
	for _, mac := range macs {
		b.deliver(mac, b.endpoints[mac], at, f.Retain())
	}
	f.Release()
}

// TransmitBytes forwards a raw byte-slice frame (the slow path for callers
// outside the pooled fast path): the frame is staged into one pooled buffer
// — the single copy the slow path is allowed — and forwarded.
func (b *Bridge) TransmitBytes(src ethernet.MAC, frame []byte) {
	if len(frame) > frameBufSize {
		b.Transmit(src, bufpool.Wrap(append([]byte(nil), frame...)))
		return
	}
	f := b.pool.Get()
	f.Append(frame)
	b.Transmit(src, f)
}

// deliver schedules frame delivery to one endpoint at the given instant,
// running it through the impairment model for that destination. Fault
// decisions draw from the kernel's seeded RNG in a fixed order (drop, dup,
// then per-copy reorder and jitter), so same-seed runs are byte-identical;
// with faults disabled no draw is made at all. deliver consumes the
// caller's buffer reference: a drop releases it, a duplicate delivery
// retains a second reference to the same immutable buffer.
func (b *Bridge) deliver(dst ethernet.MAC, pt *port, at sim.Time, frame *bufpool.Buf) {
	f := b.faults
	if !f.enabled() {
		b.schedule(pt, at, frame)
		return
	}
	rng := b.K.Rand()
	tr := b.K.Trace()
	instant := func(kind string) {
		if tr.Enabled() {
			tr.Instant(b.K.TraceTime(), "net", "fault-"+kind, 0, 0,
				obs.Str("dst", dst.String()), obs.Int("bytes", int64(frame.Len())))
		}
	}
	if f.Drop > 0 && rng.Float64() < f.Drop {
		b.mxFaultDrop.Inc()
		instant("drop")
		frame.Release()
		return
	}
	copies := 1
	if f.Dup > 0 && rng.Float64() < f.Dup {
		copies = 2
		b.mxFaultDup.Inc()
		instant("dup")
		frame.Retain()
	}
	for i := 0; i < copies; i++ {
		when := at
		if f.Reorder > 0 && rng.Float64() < f.Reorder {
			when = when.Add(time.Duration(1 + rng.Int63n(int64(DefaultReorderWindow))))
			b.mxFaultReorder.Inc()
			instant("reorder")
		}
		if f.Jitter > 0 {
			when = when.Add(time.Duration(rng.Int63n(int64(f.Jitter) + 1)))
			b.mxFaultJitter.Inc()
			instant("jitter")
		}
		b.schedule(pt, when, frame)
	}
}

// schedule hands the frame to the endpoint at the given instant, posting
// into the endpoint's home kernel when it lives on another shard. The
// bridge propagation latency already baked into `at` is at least the
// cluster lookahead, so the cross-shard post is (almost) never clamped.
func (b *Bridge) schedule(pt *port, at sim.Time, frame *bufpool.Buf) {
	if pt.home != b.K {
		e := pt.ep
		b.K.PostAt(pt.home, at, func() { e.Deliver(frame) })
		return
	}
	b.K.AtArg(at, pt.deliver, frame, 0)
}

// TX/RX ring slot encodings (little-endian, within a 120-byte slot).
//
// TX request:  gref u32 | off u16 | len u16 | id u16 | flags u8 (bit0: more) | span u64 @12
// TX response: id u16 | status u8
// RX request:  gref u32 | id u16
// RX response: id u16 | len u16 | status u8 | span u64 @12
//
// span is causal-tracing metadata (the trace id of the request the frame
// belongs to, 0 = untraced), carried in the otherwise-unused tail of the
// 120-byte descriptor slot — never in frame bytes, so wire contents and
// virtual timing are identical whether or not a request is sampled.
const (
	txFlagMore = 1 << 0

	txOffGref  = 0
	txOffOff   = 4
	txOffLen   = 6
	txOffID    = 8
	txOffFlags = 10
	txOffSpan  = 12

	rxOffGref = 0
	rxOffID   = 4
	rxOffLen  = 6
	rxOffStat = 8
	rxOffSpan = 12
)

// EncodeTxReq writes a TX request into a ring slot. span tags the first
// fragment of a traced frame (0 elsewhere).
func EncodeTxReq(s *cstruct.View, gref uint32, off, length, id uint16, more bool, span uint64) {
	s.PutLE32(txOffGref, gref)
	s.PutLE16(txOffOff, off)
	s.PutLE16(txOffLen, length)
	s.PutLE16(txOffID, id)
	var f uint8
	if more {
		f = txFlagMore
	}
	s.PutU8(txOffFlags, f)
	s.PutLE64(txOffSpan, span)
}

// DecodeTxReq reads a TX request from a ring slot.
func DecodeTxReq(s *cstruct.View) (gref uint32, off, length, id uint16, more bool, span uint64) {
	return s.LE32(txOffGref), s.LE16(txOffOff), s.LE16(txOffLen), s.LE16(txOffID),
		s.U8(txOffFlags)&txFlagMore != 0, s.LE64(txOffSpan)
}

// EncodeTxRsp writes a TX response.
func EncodeTxRsp(s *cstruct.View, id uint16, ok bool) {
	s.PutLE16(txOffID, id)
	if ok {
		s.PutU8(txOffFlags, 1)
	} else {
		s.PutU8(txOffFlags, 0)
	}
}

// DecodeTxRsp reads a TX response.
func DecodeTxRsp(s *cstruct.View) (id uint16, ok bool) {
	return s.LE16(txOffID), s.U8(txOffFlags) == 1
}

// EncodeRxReq writes an RX buffer post.
func EncodeRxReq(s *cstruct.View, gref uint32, id uint16) {
	s.PutLE32(rxOffGref, gref)
	s.PutLE16(rxOffID, id)
}

// DecodeRxReq reads an RX buffer post.
func DecodeRxReq(s *cstruct.View) (gref uint32, id uint16) {
	return s.LE32(rxOffGref), s.LE16(rxOffID)
}

// rxError is the status of an RX completion whose buffer the backend could
// not fill (Xen's NETIF_RSP_ERROR, -1, in the status byte).
const rxError = 0xFF

// EncodeRxRsp writes an RX completion; span carries the delivered frame's
// trace id (0 = untraced). A completion that is not ok answers the post
// with an error status and delivers nothing.
func EncodeRxRsp(s *cstruct.View, id, length uint16, ok bool, span uint64) {
	s.PutLE16(rxOffID, id)
	s.PutLE16(rxOffLen, length)
	if ok {
		s.PutU8(rxOffStat, 1)
	} else {
		s.PutU8(rxOffStat, rxError)
	}
	s.PutLE64(rxOffSpan, span)
}

// DecodeRxRsp reads an RX completion.
func DecodeRxRsp(s *cstruct.View) (id, length uint16, ok bool, span uint64) {
	return s.LE16(rxOffID), s.LE16(rxOffLen), s.U8(rxOffStat) == 1, s.LE64(rxOffSpan)
}

// VIF is the backend half of a virtual interface: it drains the guest's TX
// ring onto the bridge and fills the guest's posted RX buffers with
// delivered frames.
type VIF struct {
	bridge *Bridge
	mac    ethernet.MAC
	guest  *hypervisor.Domain
	pool   *bufpool.Pool // TX staging when homed off the bridge shard

	txBack *ring.Back
	rxBack *ring.Back
	port   *hypervisor.Port // backend end of the vif event channel

	pendingRx fifo.Queue[pendingRx] // RX posts consumed from the ring, awaiting frames
	txFrame   *bufpool.Buf          // TX frame whose later fragments are still to come

	rspPending int       // RX responses pushed but not yet published
	rxFlushAt  sim.Flush // publishes them at the end of the delivery instant
}

type pendingRx struct {
	gref grant.Ref
	id   uint16
}

// VIFBackend is the device-seam backend for the network device class: it
// satisfies device.Backend structurally, so the generic connector can
// attach network backends without this package importing it.
type VIFBackend struct {
	Bridge *Bridge
}

// Kind implements the device backend signature.
func (vb *VIFBackend) Kind() string { return "vif" }

// Connect maps the tx/rx rings published by the frontend and starts the
// backend's event handler.
func (vb *VIFBackend) Connect(guest *hypervisor.Domain, rings map[string]*cstruct.View, fields map[string]string, port *hypervisor.Port) error {
	mac, err := ethernet.ParseMAC(fields["mac"])
	if err != nil {
		return err
	}
	tx, rx := rings["tx"], rings["rx"]
	if tx == nil || rx == nil {
		return fmt.Errorf("netback: handshake missing tx/rx rings")
	}
	NewVIF(vb.Bridge, guest, mac, tx, rx, port)
	return nil
}

// NewVIF attaches the backend: txPage/rxPage are the guest's shared ring
// pages (already initialised by the frontend) and port is the backend end
// of the event channel. The returned VIF is registered on the bridge and
// its handler (serve) is registered on the event channel.
//
// The handler runs on the guest's home kernel: ring drains and grant copies
// touch guest memory, so sharding them with the guest keeps every access
// in the guest's shard context. When that home is not the bridge shard the
// VIF stages TX frames in its own pool (releases come back from other
// shards) and the bridge registration is posted into the bridge kernel.
func NewVIF(b *Bridge, guest *hypervisor.Domain, mac ethernet.MAC, txPage, rxPage *cstruct.View, port *hypervisor.Port) *VIF {
	v := &VIF{
		bridge: b,
		mac:    mac,
		guest:  guest,
		txBack: ring.NewBack(txPage),
		rxBack: ring.NewBack(rxPage),
		port:   port,
	}
	v.rxFlushAt.Init(func(owner any) { owner.(*VIF).rxFlush() }, v)
	if guest.K != b.K {
		v.pool = bufpool.NewPool(frameBufSize)
		guest.K.Post(b.K, 0, func() { b.Attach(v, guest.K) })
	} else {
		b.Attach(v, guest.K)
	}
	guest.K.SpawnHandler("netback-"+mac.String(), port.Sig, v.serve)
	return v
}

// MAC implements Endpoint.
func (v *VIF) MAC() ethernet.MAC { return v.mac }

// stagingPool returns the pool TX frames are assembled from: the bridge's
// on the bridge shard (bit-identical to the single-kernel path), the VIF's
// own pool when homed elsewhere (keeps the bridge pool's allocation stats a
// function of the bridge shard's own schedule).
func (v *VIF) stagingPool() *bufpool.Pool {
	if v.pool != nil {
		return v.pool
	}
	return v.bridge.pool
}

// transmit hands an assembled frame to the bridge, posting it into the
// bridge kernel when the handler runs on another shard. The post is clamped
// to the cluster lookahead, which core derives from the bridge propagation
// latency — so the hop costs the same latency the bridge would charge.
func (v *VIF) transmit(f *bufpool.Buf) {
	gk := v.guest.K
	if gk == v.bridge.K {
		v.bridge.Transmit(v.mac, f)
		return
	}
	gk.Post(v.bridge.K, 0, func() { v.bridge.Transmit(v.mac, f) })
}

// Deliver implements Endpoint: an incoming frame is copied into a guest-
// posted RX page (the one unavoidable copy on receive — the guest owns the
// destination page); if none is available the frame is dropped, as
// hardware would. Responses are published once per delivery instant, so a
// burst arriving together costs a single notification (the Figure 3
// event-threshold discipline).
func (v *VIF) Deliver(f *bufpool.Buf) {
	defer f.Release()
	v.refillPending()
	if v.pendingRx.Len() == 0 {
		v.bridge.K.Metrics().Counter("bridge_rx_no_buffer_total").Inc()
		return
	}
	post := v.pendingRx.Pop()
	page, err := v.guest.Grants.Map(post.gref, false)
	if err != nil {
		// The guest revoked the buffer it posted, or granted it read-only:
		// answer the slot with an error, or the frontend never learns it is
		// free to re-post.
		v.bridge.K.Metrics().Counter("bridge_rx_grant_errors_total").Inc()
		v.rxBack.PushResponse(func(s *cstruct.View) { EncodeRxRsp(s, post.id, 0, false, 0) })
		v.scheduleRxFlush()
		return
	}
	frame := f.Bytes()
	n := len(frame)
	if n > page.Len() {
		n = page.Len()
	}
	page.PutBytes(0, frame[:n])
	v.guest.Grants.Unmap(post.gref, page)
	v.rxBack.PushResponse(func(s *cstruct.View) { EncodeRxRsp(s, post.id, uint16(n), true, f.Span) })
	v.scheduleRxFlush()
}

// scheduleRxFlush defers publishing pushed RX responses to the end of the
// current instant: deliveries landing at the same virtual time are
// published (and the guest notified) once. Every delivery arms the flush
// again, so the last delivery's event is the one that publishes.
func (v *VIF) scheduleRxFlush() {
	v.rspPending++
	k := v.guest.K
	v.rxFlushAt.Arm(k, k.Now())
}

// rxFlush publishes pending RX responses and notifies the guest if it asked
// for an event.
func (v *VIF) rxFlush() {
	v.bridge.mxBatchRx.Observe(float64(v.rspPending))
	v.rspPending = 0
	if v.rxBack.PushResponses() {
		v.port.NotifyAsync()
		v.bridge.mxNotifyRx.Inc()
	}
}

// refillPending consumes queued RX buffer posts from the ring.
func (v *VIF) refillPending() {
	for v.rxBack.PopRequest(func(s *cstruct.View) {
		gref, id := DecodeRxReq(s)
		v.pendingRx.Push(pendingRx{grant.Ref(gref), id})
	}) {
	}
}

// serve is the backend's event handler (sim.Kernel.SpawnHandler on the vif
// event channel): it drains TX requests in batches, grant-copying frame
// fragments directly into one pooled staging buffer per frame (a single
// copy, no intermediate allocation) and handing the buffer to the bridge by
// reference. One response publish — at most one notification — covers the
// whole drained batch. It returns once the ring is empty and request events
// are re-armed; a frame still missing fragments waits in v.txFrame.
func (v *VIF) serve() {
	for {
		progressed := false
		drained := 0
		for {
			var gref uint32
			var off, length, id uint16
			var more bool
			var span uint64
			if !v.txBack.PopRequest(func(s *cstruct.View) {
				gref, off, length, id, more, span = DecodeTxReq(s)
			}) {
				break
			}
			progressed = true
			drained++
			frame := v.txFrame
			if frame == nil {
				frame = v.stagingPool().Get()
				frame.Span = span // trace id rides the first fragment's descriptor
				v.txFrame = frame
			}
			prev := frame.Len()
			dst := frame.Extend(int(length))
			ok := dst != nil
			if ok {
				// netback grant-copies TX data, straight into the frame.
				if err := v.guest.Grants.CopyInto(grant.Ref(gref), int(off), dst); err != nil {
					frame.Truncate(prev)
					ok = false
				}
			}
			if !more {
				if ok && frame.Len() >= 14 {
					v.transmit(frame)
				} else {
					frame.Release()
				}
				v.txFrame = nil
			}
			v.txBack.PushResponse(func(s *cstruct.View) { EncodeTxRsp(s, id, ok) })
		}
		if drained > 0 {
			v.bridge.mxBatchTx.Observe(float64(drained))
		}
		v.refillPending()
		if v.txBack.PushResponses() {
			v.port.NotifyAsync()
			v.bridge.mxNotifyTx.Inc()
		}
		if !progressed {
			if raced := v.txBack.EnableRequestEvents(); raced {
				continue
			}
			return
		}
	}
}
