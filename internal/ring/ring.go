// Package ring implements the Xen shared-memory ring protocol that is the
// base abstraction for all I/O in a unikernel (paper §3.4): a single shared
// page divided into fixed-size request/response slots tracked by
// producer/consumer pointers, with responses written into the same slots as
// the requests and event thresholds to suppress redundant notifications.
//
// The layout of the ring header matches the paper's Figure 3 cstruct:
// req_prod, req_event, rsp_prod, rsp_event — accessed through endian-aware
// cstruct views exactly as a Mirage driver would.
package ring

import (
	"fmt"

	"repro/internal/cstruct"
)

// Ring geometry. 32 slots of 120 bytes plus a 64-byte header fit one page
// with room to spare; Xen rings are likewise power-of-two sized.
const (
	HeaderSize = 64
	SlotSize   = 120
	Slots      = 32
)

// Header field offsets (paper Figure 3, little-endian as on x86).
const (
	offReqProd  = 0
	offReqEvent = 4
	offRspProd  = 8
	offRspEvent = 12
)

// Shared is the shared ring page. Both ends hold views of the same page —
// typically the frontend grants it and the backend maps it.
type Shared struct {
	page *cstruct.View
	// slots caches the sub-view of each slot: ring geometry is fixed, so
	// the 32 views are built once and reused for every push/pop instead of
	// allocating a fresh sub-view per ring operation.
	slots [Slots]*cstruct.View
}

// NewShared initialises a shared ring in page (which must be at least one
// page long).
func NewShared(page *cstruct.View) *Shared {
	if page.Len() < HeaderSize+Slots*SlotSize {
		panic(fmt.Sprintf("ring: page too small (%d bytes)", page.Len()))
	}
	s := &Shared{page: page}
	// As in Xen's SHARED_RING_INIT: event thresholds start at 1 so the
	// very first request/response triggers a notification.
	s.setReqEvent(1)
	s.setRspEvent(1)
	return s
}

// Attach wraps an already-initialised shared ring page (backend side).
func Attach(page *cstruct.View) *Shared { return &Shared{page: page} }

func (s *Shared) reqProd() uint32      { return s.page.LE32(offReqProd) }
func (s *Shared) reqEvent() uint32     { return s.page.LE32(offReqEvent) }
func (s *Shared) rspProd() uint32      { return s.page.LE32(offRspProd) }
func (s *Shared) rspEvent() uint32     { return s.page.LE32(offRspEvent) }
func (s *Shared) setReqProd(v uint32)  { s.page.PutLE32(offReqProd, v) }
func (s *Shared) setReqEvent(v uint32) { s.page.PutLE32(offReqEvent, v) }
func (s *Shared) setRspProd(v uint32)  { s.page.PutLE32(offRspProd, v) }
func (s *Shared) setRspEvent(v uint32) { s.page.PutLE32(offRspEvent, v) }

// slot returns the cached view of slot i (shared by requests and
// responses). The views pin the ring page, which lives for the life of the
// ring anyway.
func (s *Shared) slot(i uint32) *cstruct.View {
	j := i % Slots
	if s.slots[j] == nil {
		s.slots[j] = s.page.Sub(HeaderSize+int(j)*SlotSize, SlotSize)
	}
	return s.slots[j]
}

// FrontHooks are optional observability callbacks for the frontend end.
// The ring is a pure data structure with no kernel reference, so whichever
// driver owns the ring (netif, blkif) wires these to its tracer/metrics.
type FrontHooks struct {
	OnPublish func(inFlight int, notify bool) // after PushRequests
}

// Front is the frontend (guest) end of a ring.
type Front struct {
	sh          *Shared
	reqProdPvt  uint32 // private request producer, published by PushRequests
	rspConsumed uint32 // responses consumed so far

	Hooks FrontHooks
}

// NewFront creates the frontend end over a fresh shared page.
func NewFront(page *cstruct.View) *Front {
	return &Front{sh: NewShared(page)}
}

// Free returns how many request slots are available, implementing the flow
// control that stops the frontend overflowing the ring (§3.4).
func (f *Front) Free() int {
	return Slots - int(f.reqProdPvt-f.rspConsumed)
}

// PushRequest writes one request into the next free slot using encode and
// advances the private producer. It reports false (without calling encode)
// if the ring is full.
func (f *Front) PushRequest(encode func(slot *cstruct.View)) bool {
	if f.Free() == 0 {
		return false
	}
	encode(f.sh.slot(f.reqProdPvt))
	f.reqProdPvt++
	return true
}

// PushRequests publishes the private producer to the shared ring and
// reports whether the backend must be notified (it set req_event to ask for
// a wakeup at or before the new producer value).
func (f *Front) PushRequests() (notify bool) {
	old := f.sh.reqProd()
	f.sh.setReqProd(f.reqProdPvt)
	// Notify iff the new requests cross the backend's event threshold.
	notify = f.reqProdPvt-f.sh.reqEvent() < f.reqProdPvt-old
	if f.Hooks.OnPublish != nil {
		f.Hooks.OnPublish(Slots-f.Free(), notify)
	}
	return notify
}

// PendingResponses reports whether unconsumed responses exist.
func (f *Front) PendingResponses() bool { return f.sh.rspProd() != f.rspConsumed }

// PopResponse consumes one response via decode; it reports false if none is
// pending.
func (f *Front) PopResponse(decode func(slot *cstruct.View)) bool {
	if !f.PendingResponses() {
		return false
	}
	decode(f.sh.slot(f.rspConsumed))
	f.rspConsumed++
	return true
}

// EnableResponseEvents asks the backend for a notification on the next
// response and reports whether responses raced in meanwhile (in which case
// the caller should consume them instead of blocking).
func (f *Front) EnableResponseEvents() (racedResponses bool) {
	f.sh.setRspEvent(f.rspConsumed + 1)
	return f.PendingResponses()
}

// Back is the backend (driver-domain) end of a ring.
type Back struct {
	sh          *Shared
	rspProdPvt  uint32
	reqConsumed uint32
}

// NewBack attaches the backend end to the (already initialised) shared page.
func NewBack(page *cstruct.View) *Back {
	return &Back{sh: Attach(page)}
}

// PendingRequests reports whether unconsumed requests exist.
func (b *Back) PendingRequests() bool { return b.sh.reqProd() != b.reqConsumed }

// PopRequest consumes one request via decode; false if none pending.
func (b *Back) PopRequest(decode func(slot *cstruct.View)) bool {
	if !b.PendingRequests() {
		return false
	}
	decode(b.sh.slot(b.reqConsumed))
	b.reqConsumed++
	return true
}

// PushResponse writes one response into the slot of the oldest
// unanswered request (responses go into the same slots as requests).
func (b *Back) PushResponse(encode func(slot *cstruct.View)) bool {
	if b.rspProdPvt == b.reqConsumed {
		// Cannot respond ahead of consuming the request.
		return false
	}
	encode(b.sh.slot(b.rspProdPvt))
	b.rspProdPvt++
	return true
}

// PushResponses publishes responses; reports whether to notify the frontend.
func (b *Back) PushResponses() (notify bool) {
	old := b.sh.rspProd()
	b.sh.setRspProd(b.rspProdPvt)
	notify = b.rspProdPvt-b.sh.rspEvent() < b.rspProdPvt-old
	return notify
}

// EnableRequestEvents asks the frontend for a notification on the next
// request; reports whether requests raced in meanwhile.
func (b *Back) EnableRequestEvents() (racedRequests bool) {
	b.sh.setReqEvent(b.reqConsumed + 1)
	return b.PendingRequests()
}
