// Package netif is the guest network frontend driver (paper §3.4): a pure
// library over the shared-ring and grant abstractions that interoperates
// with the netback backend. Every fragment of a transmitted frame is granted
// to the backend by reference. The stack builds each frame in place in one
// pooled page, headers in front of the payload, and hands whole batches to
// SendFrames, so every frame an experiment or appliance sends is a single
// fragment; the scatter-gather form of Figure 4 — a header fragment plus
// payload sub-views in one frame — is Send, which the driver and the
// backend carry end to end but only tests drive. Receive pre-posts whole
// I/O pages; arriving frames are handed to the stack as zero-copy sub-views
// of those pages, which return to the pool once every view is released.
//
// The frontend/backend rendezvous happens through xenstore, as on real Xen:
// the frontend writes its ring grant references, event channel and MAC
// under its device path and moves the state entry through the XenbusState
// values; the backend reads them and connects.
package netif

import (
	"fmt"

	"repro/internal/cstruct"
	"repro/internal/device"
	"repro/internal/ethernet"
	"repro/internal/fifo"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/ring"
	"repro/internal/xenstore"
)

// MTU is the Ethernet payload limit.
const MTU = 1500

// rxSlots is how many receive buffers the frontend keeps posted.
const rxSlots = ring.Slots - 1

// Netif is a connected guest network interface.
type Netif struct {
	vm   *pvboot.VM
	mac  ethernet.MAC
	port *hypervisor.Port

	txFront *ring.Front
	rxFront *ring.Front
	txPage  *cstruct.View
	rxPage  *cstruct.View

	recv func(*cstruct.View, uint64)

	// Ring ids index these tables, and each ring keeps a free list of its
	// ids, as Linux netfront does: a request in the ring holds at most one
	// id, so ring.Slots of them never run out.
	txInflight [ring.Slots]txFrame
	txFreeIDs  []uint16
	txQueue    fifo.Queue[[]txFrag] // waiting for ring slots
	tfFree     [][]txFrag           // retired fragment slices recycled by enqueue
	doneIDs    []uint16             // completion-drain scratch, reused across wakes
	rxPosted   [ring.Slots]rxPost
	rxFreeIDs  []uint16

	// Stats live on the kernel's metrics registry; see Attach.
	mxTx       *obs.Counter
	mxRx       *obs.Counter
	mxTxQueued *obs.Counter
}

type txFrag struct {
	gref grant.Ref
	view *cstruct.View
	more bool
	span uint64 // trace id on a frame's first fragment, 0 elsewhere
}

// txFrame is a frame in flight under one id: its fragments, and how many of
// their responses, which all carry that id, are still to come. The id is
// free while pending is 0.
type txFrame struct {
	frags   []txFrag
	pending int
}

// rxPost is a posted receive buffer; the id is free while page is nil.
type rxPost struct {
	gref grant.Ref
	page *cstruct.View
}

// allIDs is a full free list of ring ids, the lowest popped first.
func allIDs() []uint16 {
	ids := make([]uint16, ring.Slots)
	for i := range ids {
		ids[i] = uint16(ring.Slots - 1 - i)
	}
	return ids
}

// popID takes an id off a free list.
func popID(free *[]uint16) uint16 {
	ids := *free
	id := ids[len(ids)-1]
	*free = ids[:len(ids)-1]
	return id
}

// Attach creates and connects a network interface for vm on bridge b, with
// dom0 as the driver domain. The handshake runs through the unified device
// seam: the frontend publishes its rings and MAC under
// /local/domain/<id>/device/vif/0 and the VIF backend connects from the
// other side.
func Attach(vm *pvboot.VM, b *netback.Bridge, dom0 *hypervisor.Domain, st *xenstore.Store, mac ethernet.MAC) (*Netif, error) {
	d := vm.Dom
	txPage := d.Pool.Get()
	rxPage := d.Pool.Get()
	n := &Netif{
		vm:        vm,
		mac:       mac,
		txFront:   ring.NewFront(txPage),
		rxFront:   ring.NewFront(rxPage),
		txPage:    txPage,
		rxPage:    rxPage,
		txFreeIDs: allIDs(),
		rxFreeIDs: allIDs(),
	}
	k := vm.S.K
	m := k.Metrics()
	tr := k.Trace()
	dev := obs.L("dev", fmt.Sprintf("vif%d", d.ID))
	n.mxTx = m.Counter("net_packets_total", dev, obs.L("dir", "tx"))
	n.mxRx = m.Counter("net_packets_total", dev, obs.L("dir", "rx"))
	n.mxTxQueued = m.Counter("net_tx_ring_full_total", dev)
	occBounds := []float64{1, 2, 4, 8, 16, 24, 32}
	txOcc := m.Histogram("ring_occupancy", occBounds, dev, obs.L("ring", "tx"))
	rxOcc := m.Histogram("ring_occupancy", occBounds, dev, obs.L("ring", "rx"))
	n.txFront.Hooks.OnPublish = func(inFlight int, notify bool) {
		txOcc.Observe(float64(inFlight))
		if tr.Enabled() {
			tr.Instant(k.TraceTime(), "ring", "tx-push", d.ID, 0,
				obs.Int("in_flight", int64(inFlight)))
		}
	}
	n.rxFront.Hooks.OnPublish = func(inFlight int, notify bool) {
		rxOcc.Observe(float64(inFlight))
	}

	if _, err := vm.Attach(dom0, st, 0, n, &netback.VIFBackend{Bridge: b}); err != nil {
		return nil, err
	}
	n.fillRx()
	return n, nil
}

// Kind implements device.Frontend.
func (n *Netif) Kind() string { return "vif" }

// Rings implements device.Frontend: the tx and rx shared rings.
func (n *Netif) Rings() []device.Ring {
	return []device.Ring{{Name: "tx", Page: n.txPage}, {Name: "rx", Page: n.rxPage}}
}

// Fields implements device.Frontend.
func (n *Netif) Fields() map[string]string {
	return map[string]string{"mac": n.mac.String()}
}

// Connected implements device.Frontend.
func (n *Netif) Connected(port *hypervisor.Port) { n.port = port }

// SetReceiver installs the upcall invoked with each received frame view and
// the frame's trace id (0 = untraced; causal-tracing metadata riding the RX
// descriptor). The receiver owns the view and must Release it (directly or
// through the stack's zero-copy discipline).
func (n *Netif) SetReceiver(fn func(*cstruct.View, uint64)) { n.recv = fn }

// fillRx keeps rxSlots buffers posted.
func (n *Netif) fillRx() {
	for ring.Slots-len(n.rxFreeIDs) < rxSlots && n.rxFront.Free() > 0 {
		page := n.vm.Dom.Pool.Get()
		gref := n.vm.Dom.Grants.Grant(page, false)
		id := popID(&n.rxFreeIDs)
		n.rxPosted[id] = rxPost{gref, page}
		n.rxFront.PushRequest(func(s *cstruct.View) { netback.EncodeRxReq(s, uint32(gref), id) })
	}
	n.rxFront.PushRequests()
}

// Send transmits a frame made of one or more fragments (header page plus
// payload sub-views, Figure 4). Ownership of the fragment views passes to
// the driver; they are released when the backend acknowledges the frame.
// If the ring is momentarily full the frame is queued.
func (n *Netif) Send(frags ...*cstruct.View) {
	if len(frags) == 0 {
		return
	}
	if n.enqueue(frags, 0) {
		n.flushTx()
	}
}

// SendFrames transmits a batch of single-fragment frames, staging every
// frame into the ring and then publishing — and notifying the backend —
// once for the whole batch (the §3.4.1 batched-notification discipline:
// the backend drains all of them on a single wakeup). spans, when non-nil,
// carries each frame's trace id (parallel to frames; 0 = untraced).
func (n *Netif) SendFrames(frames []*cstruct.View, spans []uint64) {
	staged := false
	for i, f := range frames {
		var span uint64
		if i < len(spans) {
			span = spans[i]
		}
		if n.enqueue([]*cstruct.View{f}, span) {
			staged = true
		}
	}
	if staged {
		n.flushTx()
	}
}

// enqueue grants a frame's fragments and stages its requests in the ring
// without publishing, reporting whether it was staged (false: ring full,
// frame queued for completion-time drain).
func (n *Netif) enqueue(frags []*cstruct.View, span uint64) bool {
	tf := n.getFrags(len(frags))
	for i, f := range frags {
		tf[i] = txFrag{
			gref: n.vm.Dom.Grants.Grant(f, true),
			view: f,
			more: i < len(frags)-1,
		}
	}
	tf[0].span = span
	if n.txFront.Free() < len(tf) {
		n.txQueue.Push(tf)
		n.mxTxQueued.Inc()
		return false
	}
	n.stageTx(tf)
	return true
}

// getFrags pops a retired fragment slice (or allocates one).
func (n *Netif) getFrags(ln int) []txFrag {
	if m := len(n.tfFree); m > 0 {
		tf := n.tfFree[m-1]
		n.tfFree[m-1] = nil
		n.tfFree = n.tfFree[:m-1]
		if cap(tf) >= ln {
			return tf[:ln]
		}
	}
	return make([]txFrag, ln, max(ln, 4))
}

// stageTx writes a frame's requests into ring slots (unpublished).
func (n *Netif) stageTx(tf []txFrag) {
	id := popID(&n.txFreeIDs)
	n.txInflight[id] = txFrame{tf, len(tf)}
	for i := range tf {
		f := &tf[i]
		n.txFront.PushRequest(func(s *cstruct.View) {
			netback.EncodeTxReq(s, uint32(f.gref), 0, uint16(f.view.Len()), id, f.more, f.span)
		})
	}
	n.mxTx.Inc()
	if k := n.vm.S.K; k.Trace().Enabled() {
		total := 0
		for _, f := range tf {
			total += f.view.Len()
		}
		k.Trace().Instant(k.TraceTime(), "net", "tx", n.vm.Dom.ID, 0,
			obs.Int("bytes", int64(total)), obs.Int("frags", int64(len(tf))))
	}
}

// flushTx publishes staged requests and notifies the backend if its event
// threshold asks for it. It runs in run-loop context with no proc to charge,
// so the notify hypercall costs the guest's vCPU nothing (DESIGN.md §5).
func (n *Netif) flushTx() {
	if n.txFront.PushRequests() {
		n.port.NotifyAsync()
	}
}

// OnEvent implements device.Frontend: it handles ring completions inside
// the scheduler run loop, using the standard drain / re-arm / re-check
// protocol so no completion is lost.
func (n *Netif) OnEvent() {
	for {
		n.drainCompletions()
		racedTx := n.txFront.EnableResponseEvents()
		racedRx := n.rxFront.EnableResponseEvents()
		if !racedTx && !racedRx {
			return
		}
	}
}

func (n *Netif) drainCompletions() {
	// TX completions: release grants and fragment views. Multi-fragment
	// frames complete with one response per fragment sharing an id; the
	// frame is released, and its id freed, at the last of them. An id that
	// is not in flight is ignored.
	n.doneIDs = n.doneIDs[:0]
	for n.txFront.PopResponse(func(s *cstruct.View) {
		id, _ := netback.DecodeTxRsp(s)
		n.doneIDs = append(n.doneIDs, id)
	}) {
	}
	for _, id := range n.doneIDs {
		if int(id) >= len(n.txInflight) || n.txInflight[id].pending == 0 {
			continue
		}
		fr := &n.txInflight[id]
		if fr.pending--; fr.pending > 0 {
			continue
		}
		tf := fr.frags
		for i := range tf {
			n.vm.Dom.Grants.End(tf[i].gref)
			tf[i].view.Release()
			tf[i] = txFrag{}
		}
		*fr = txFrame{}
		n.txFreeIDs = append(n.txFreeIDs, id)
		n.tfFree = append(n.tfFree, tf[:0])
	}
	// Drain queued frames into freed slots, publishing once for the batch.
	drained := false
	for n.txQueue.Len() > 0 && n.txFront.Free() >= len(*n.txQueue.At(0)) {
		n.stageTx(n.txQueue.Pop())
		drained = true
	}
	if drained {
		n.flushTx()
	}

	// RX completions: hand zero-copy sub-views to the stack and repost.
	for {
		var id, length uint16
		var filled bool
		var span uint64
		if !n.rxFront.PopResponse(func(s *cstruct.View) { id, length, filled, span = netback.DecodeRxRsp(s) }) {
			break
		}
		if int(id) >= len(n.rxPosted) || n.rxPosted[id].page == nil {
			continue
		}
		post := n.rxPosted[id]
		n.rxPosted[id] = rxPost{}
		n.rxFreeIDs = append(n.rxFreeIDs, id)
		n.vm.Dom.Grants.End(post.gref)
		if !filled { // the backend could not use the buffer: re-post it
			post.page.Release()
			continue
		}
		frame := post.page.Sub(0, int(length))
		post.page.Release() // stack sub-views now own the page
		n.mxRx.Inc()
		if k := n.vm.S.K; k.Trace().Enabled() {
			k.Trace().Instant(k.TraceTime(), "net", "rx", n.vm.Dom.ID, 0,
				obs.Int("bytes", int64(length)))
		}
		if n.recv != nil {
			n.recv(frame, span)
		} else {
			frame.Release()
		}
	}
	n.fillRx()
}
