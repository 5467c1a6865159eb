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

// Homed is optionally implemented by endpoints whose Deliver must run on a
// simulation kernel other than the bridge's (a guest pinned to another
// pCPU shard). The bridge posts deliveries into that kernel; endpoints
// without a home receive frames on the bridge kernel as before. Home is
// asked once, when the endpoint is attached.
type Homed interface {
	Home() *sim.Kernel
}

// frameBufSize bounds one assembled Ethernet frame (MTU + headers, rounded
// up to a power of two).
const frameBufSize = 2048

// Uplink is the bridge's typed seam to a wider network: when a host bridge
// belongs to a multi-host fabric (internal/datacenter), frames whose
// destination is not attached locally are handed up instead of being
// dropped. Every method consumes the caller's frame reference. A bridge
// with no uplink behaves exactly as before: unknown unicast destinations
// count as NoRoute and broadcasts stay host-local.
type Uplink interface {
	// Forward carries a unicast frame whose destination MAC is not local.
	Forward(src ethernet.MAC, frame *bufpool.Buf)
	// Flood carries a broadcast frame beyond the local bridge.
	Flood(src ethernet.MAC, frame *bufpool.Buf)
	// SteerRemote carries an L4-balancer steering decision toward a MAC
	// homed on another host; reports false when the fabric cannot route it.
	SteerRemote(dst ethernet.MAC, frame *bufpool.Buf) bool
}

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
	K      *sim.Kernel
	CPU    *sim.CPU // backend packet-processing CPU
	Wire   *sim.CPU // serialisation resource (line rate)
	Params Params

	endpoints map[ethernet.MAC]*port
	down      map[ethernet.MAC]bool // administratively-down ports: frames from them are discarded
	uplink    Uplink                // nil unless the bridge joins a multi-host fabric
	faults    Faults
	pool      *bufpool.Pool // frame staging buffers (VIF TX assembly)

	// Stats
	Forwarded     int
	Flooded       int
	Steered       int
	NoRoute       int
	PortDownDrops int
	Bytes         int
	FaultDrops    int
	FaultDups     int
	FaultReorders int

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
func NewBridgeNamed(k *sim.Kernel, params Params, prefix string) *Bridge {
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
		Params:         params,
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

// Attach connects an endpoint to the bridge (re-attaching a MAC brings a
// previously downed port back up).
func (b *Bridge) Attach(e Endpoint) {
	pt := &port{ep: e, home: b.K}
	if h, ok := e.(Homed); ok {
		pt.home = h.Home()
	}
	pt.deliver = func(frame any, _ uint64) { e.Deliver(frame.(*bufpool.Buf)) }
	b.endpoints[e.MAC()] = pt
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
// and frames *from* it are discarded at the bridge. This models unplugging
// a crashed or retired guest whose domain — and backend handler — may still
// be running: the guest can keep transmitting into the dead port without
// reaching anyone.
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
	b.Bytes += n
	b.mxBytes.Add(int64(n))
	return b.Params.Reserve(b.CPU, b.Wire, n)
}

// Transmit forwards a frame from src onto the bridge. The destination MAC
// is read from the frame header (first six bytes); broadcast frames flood
// to every endpoint except the source. The caller yields its reference to
// the frame buffer; each delivery hands one reference to the endpoint
// (broadcast and duplicate deliveries retain the shared buffer rather than
// copying it — the frame is immutable once transmitted).
func (b *Bridge) Transmit(src ethernet.MAC, f *bufpool.Buf) {
	frame := f.Bytes()
	if len(frame) < 14 || b.down[src] {
		if b.down[src] {
			b.PortDownDrops++
		}
		f.Release()
		return
	}
	var dst ethernet.MAC
	copy(dst[:], frame[0:6])

	at := b.charge(len(frame))

	if dst == ethernet.Broadcast {
		b.Flooded++
		b.mxFlooded.Inc()
		b.floodLocal(src, at, f.Retain())
		if b.uplink != nil {
			// The uplink sees the frame once it has cleared this bridge.
			u := b.uplink
			b.K.At(at, func() { u.Flood(src, f) })
			return
		}
		f.Release()
		return
	}
	pt, ok := b.endpoints[dst]
	if !ok {
		if b.uplink != nil {
			u := b.uplink
			b.K.At(at, func() { u.Forward(src, f) })
			return
		}
		b.NoRoute++
		f.Release()
		return
	}
	b.Forwarded++
	b.mxForwarded.Inc()
	if tr := b.K.Trace(); tr.Enabled() {
		tr.Instant(b.K.TraceTime(), "net", "bridge-fwd", 0, 0,
			obs.Str("dst", dst.String()), obs.Int("bytes", int64(len(frame))))
	}
	b.deliver(dst, pt, at, f)
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

// Inject delivers a fabric-forwarded frame to this bridge's local ports
// only — it is the receive half of the Uplink seam and never re-uplinks,
// so a frame cannot loop between bridges. The local bridge traversal is
// charged exactly as for Transmit (the fabric already charged its own
// hops). Consumes the caller's frame reference.
func (b *Bridge) Inject(f *bufpool.Buf) {
	frame := f.Bytes()
	if len(frame) < 14 {
		f.Release()
		return
	}
	var dst, src ethernet.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])

	at := b.charge(len(frame))

	if dst == ethernet.Broadcast {
		b.Flooded++
		b.mxFlooded.Inc()
		b.floodLocal(src, at, f)
		return
	}
	pt, ok := b.endpoints[dst]
	if !ok {
		b.NoRoute++
		f.Release()
		return
	}
	b.Forwarded++
	b.mxForwarded.Inc()
	b.deliver(dst, pt, at, f)
}

// InjectSteer is Inject for a steered frame: deliver to the local port
// owning dst regardless of the frame's embedded destination MAC. Returns
// false (frame dropped) when dst is not attached here.
func (b *Bridge) InjectSteer(dst ethernet.MAC, f *bufpool.Buf) bool {
	pt, ok := b.endpoints[dst]
	if !ok {
		b.NoRoute++
		f.Release()
		return false
	}
	at := b.charge(f.Len())
	b.Steered++
	b.mxSteered.Inc()
	b.deliver(dst, pt, at, f)
	return true
}

// Steer forwards a frame to the endpoint owning dst regardless of the
// frame's embedded destination MAC — the L2 redirection primitive a
// virtual load balancer in the bridge path uses to hand a connection's
// packets to the replica chosen for it, without rewriting the frame. Costs
// and impairments are charged exactly as for Transmit; the caller yields its
// frame reference. Returns false (frame discarded) when no endpoint owns dst.
func (b *Bridge) Steer(dst ethernet.MAC, f *bufpool.Buf) bool {
	pt, ok := b.endpoints[dst]
	if !ok {
		if b.uplink != nil {
			// Charge the local traversal, then hand the steering decision
			// to the fabric once the frame has cleared this bridge.
			at := b.charge(f.Len())
			b.Steered++
			b.mxSteered.Inc()
			u := b.uplink
			b.K.At(at, func() { u.SteerRemote(dst, f) })
			return true
		}
		b.NoRoute++
		f.Release()
		return false
	}
	at := b.charge(f.Len())
	b.Steered++
	b.mxSteered.Inc()
	if tr := b.K.Trace(); tr.Enabled() {
		tr.Instant(b.K.TraceTime(), "net", "bridge-steer", 0, 0,
			obs.Str("dst", dst.String()), obs.Int("bytes", int64(f.Len())))
	}
	b.deliver(dst, pt, at, f)
	return true
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
		b.FaultDrops++
		b.mxFaultDrop.Inc()
		instant("drop")
		frame.Release()
		return
	}
	copies := 1
	if f.Dup > 0 && rng.Float64() < f.Dup {
		copies = 2
		b.FaultDups++
		b.mxFaultDup.Inc()
		instant("dup")
		frame.Retain()
	}
	for i := 0; i < copies; i++ {
		when := at
		if f.Reorder > 0 && rng.Float64() < f.Reorder {
			when = when.Add(time.Duration(1 + rng.Int63n(int64(DefaultReorderWindow))))
			b.FaultReorders++
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

// replyHoldoff is how long after a cross-shard frame delivery the width
// controller is told to expect return traffic: a delivered frame usually
// provokes an ACK or a response within a few bridge latencies, and widening
// epochs into that gap would defer the reply's visibility.
const replyHoldoff = 4

// schedule hands the frame to the endpoint at the given instant, posting
// into the endpoint's home kernel when it lives on another shard. The
// bridge propagation latency already baked into `at` is at least the
// cluster lookahead, so the cross-shard post is (almost) never clamped.
// Each cross-shard delivery also hints the cluster's width controller that
// reply traffic is likely until shortly after the delivery instant, keeping
// epochs narrow across request/response think-time gaps.
func (b *Bridge) schedule(pt *port, at sim.Time, frame *bufpool.Buf) {
	if pt.home != b.K {
		e := pt.ep
		b.K.PostAt(pt.home, at, func() { e.Deliver(frame) })
		if c := b.K.Cluster(); c != nil {
			c.HoldWide(at.Add(replyHoldoff * b.Params.Propagation))
		}
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

// EncodeRxRsp writes an RX completion; span carries the delivered frame's
// trace id (0 = untraced).
func EncodeRxRsp(s *cstruct.View, id, length uint16, span uint64) {
	s.PutLE16(rxOffID, id)
	s.PutLE16(rxOffLen, length)
	s.PutU8(rxOffStat, 1)
	s.PutLE64(rxOffSpan, span)
}

// DecodeRxRsp reads an RX completion.
func DecodeRxRsp(s *cstruct.View) (id, length uint16, span uint64) {
	return s.LE16(rxOffID), s.LE16(rxOffLen), s.LE64(rxOffSpan)
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

	rspPending  int    // RX responses pushed but not yet published
	rxFlushes   int    // rxFlush events scheduled and not yet fired
	rxFlushFunc func() // v.rxFlush, built once

	// Stats
	TxFrames int
	RxFrames int
	RxDrops  int // frames dropped because the guest posted no buffer
}

type pendingRx struct {
	gref grant.Ref
	id   uint16
}

// VIFBackend is the device-seam backend for the network device class: it
// satisfies device.Backend structurally, so the generic connector can
// attach network backends without this package importing it. Connect fills
// VIF with the attached backend.
type VIFBackend struct {
	Bridge *Bridge
	VIF    *VIF
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
	vb.VIF = NewVIF(vb.Bridge, guest, mac, tx, rx, port)
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
	v.rxFlushFunc = v.rxFlush
	if guest.K != b.K {
		v.pool = bufpool.NewPool(frameBufSize)
		guest.K.Post(b.K, 0, func() { b.Attach(v) })
	} else {
		b.Attach(v)
	}
	guest.K.SpawnHandler("netback-"+mac.String(), port.Sig, v.serve)
	return v
}

// MAC implements Endpoint.
func (v *VIF) MAC() ethernet.MAC { return v.mac }

// Home implements Homed: frames for this VIF are delivered on the guest's
// kernel.
func (v *VIF) Home() *sim.Kernel { return v.guest.K }

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
		v.RxDrops++
		return
	}
	post := v.pendingRx.Pop()
	page, err := v.guest.Grants.Map(post.gref)
	if err != nil {
		v.RxDrops++
		return
	}
	frame := f.Bytes()
	n := len(frame)
	if n > page.Len() {
		n = page.Len()
	}
	page.PutBytes(0, frame[:n])
	v.guest.Grants.Unmap(post.gref, page)
	v.rxBack.PushResponse(func(s *cstruct.View) { EncodeRxRsp(s, post.id, uint16(n), f.Span) })
	v.RxFrames++
	v.scheduleRxFlush()
}

// scheduleRxFlush defers publishing pushed RX responses to the end of the
// current instant: deliveries landing at the same virtual time are
// published (and the guest notified) once. Every delivery schedules a flush
// event and same-instant events fire in the order they were scheduled, so
// the one that finds no other outstanding is the last: it alone publishes.
func (v *VIF) scheduleRxFlush() {
	v.rspPending++
	v.rxFlushes++
	k := v.guest.K
	k.At(k.Now(), v.rxFlushFunc)
}

// rxFlush is the flush event: the last one outstanding publishes pending RX
// responses and notifies the guest if it asked for an event.
func (v *VIF) rxFlush() {
	v.rxFlushes--
	if v.rxFlushes > 0 {
		return
	}
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
					v.TxFrames++
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
