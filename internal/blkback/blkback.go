// Package blkback models the block backend of the driver domain (paper
// §3.5.2): an SSD device with internal channel parallelism and a shared
// bus, plus a per-guest VBD backend that drains the guest's request ring.
// There is no buffer cache anywhere on this path — all requests go direct
// to the device, which is the unikernel storage discipline ("the only
// built-in policy is that all writes are guaranteed to be direct").
package blkback

import (
	"fmt"
	"time"

	"repro/internal/cstruct"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/ring"
	"repro/internal/sim"
)

// SectorSize is the device sector size.
const SectorSize = 512

// SectorsPerPage is how many sectors fit one I/O page.
const SectorsPerPage = cstruct.PageSize / SectorSize

// The SSD models a fast PCIe SSD (the paper's Figure 9 device peaks around
// 1.6 GB/s on direct I/O), calibrated to Figure 9's envelope.
const (
	SSDChannels     = 4                     // internal parallelism
	SSDReadLatency  = 60 * time.Microsecond // per-request channel occupancy
	SSDWriteLatency = 80 * time.Microsecond
	SSDBusGBps      = 1.6 // shared-bus bandwidth in GB/s (bounds aggregate throughput)
)

// extentBytes is the granule the backing store grows by, picked by
// measurement: kv_mixed (36 k node pages from sector 8 up, a WAL at sector
// 2²⁶; three repetitions per size) ran 428 k ops/s with 4 KiB extents, then
// 460 k, 475 k, 471 k and 460 k at 16 KiB, 64 KiB, 256 KiB and 1 MiB, in
// 204–210 MiB of host memory throughout. Flat from 16 KiB up, so the middle
// of the flat range: a lone sector written far from anything else (a log
// header) costs 64 KiB, not a megabyte.
const (
	extentBytes   = 64 << 10
	extentSectors = extentBytes / SectorSize
)

// SSD is the device model plus its backing store: a sparse map of
// fixed-size, pointer-free extents created on first write. Sparse because
// appliances address the device far apart (kv_mixed keeps its B-tree at
// sector 8 and its WAL at sector 2²⁶); extents rather than sectors so a page
// write is one lookup and one copy, allocates nothing once its extent
// exists, and leaves the collector nothing to scan but the map itself.
type SSD struct {
	K        *sim.Kernel
	channels [SSDChannels]sim.Time // per-channel busy-until
	bus      *sim.CPU

	extents map[uint64][]byte // extent index (sector / extentSectors) -> extentBytes bytes

	// Stats
	Reads, Writes int
	BytesMoved    int
}

// NewSSDNamed creates an SSD. Its bus CPU carries the given prefix, so
// multi-host platforms keep per-host device gauges apart; the empty prefix
// preserves the historical CPU name.
func NewSSDNamed(k *sim.Kernel, prefix string) *SSD {
	bus := "ssd-bus"
	if prefix != "" {
		bus = prefix + "-ssd-bus"
	}
	d := &SSD{
		K:       k,
		bus:     k.NewCPU(bus),
		extents: map[uint64][]byte{},
	}
	return d
}

// Submit schedules a request of n bytes and returns the virtual instant it
// completes; where on the device it lands does not matter. Channel
// parallelism lets small requests overlap; the shared bus bounds aggregate
// bandwidth.
func (d *SSD) Submit(n int, write bool) sim.Time {
	lat := SSDReadLatency
	if write {
		lat = SSDWriteLatency
		d.Writes++
	} else {
		d.Reads++
	}
	d.BytesMoved += n
	// Earliest-free channel.
	best := 0
	for i, t := range d.channels {
		if t < d.channels[best] {
			best = i
		}
	}
	start := d.K.Now()
	if d.channels[best] > start {
		start = d.channels[best]
	}
	chanDone := start.Add(lat)
	d.channels[best] = chanDone
	// Bus transfer serialises across channels.
	busDone := d.bus.Reserve(time.Duration(float64(n) / SSDBusGBps))
	if busDone > chanDone {
		return busDone
	}
	return chanDone
}

// ReadAt fills dst with the bytes stored from the start of sector on,
// across as many sectors and extents as len(dst) covers. Ranges never
// written read as zeros, and reading creates no extent.
func (d *SSD) ReadAt(sector uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(sector%extentSectors) * SectorSize
		n := min(len(dst), extentBytes-off)
		if ext, ok := d.extents[sector/extentSectors]; ok {
			copy(dst[:n], ext[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		sector += uint64(n / SectorSize)
	}
}

// WriteAt stores src from the start of sector on. The bytes are copied, so
// the caller keeps its buffer; a final sector src only partly covers is
// zero-filled to its end.
func (d *SSD) WriteAt(sector uint64, src []byte) {
	for len(src) > 0 {
		off := int(sector%extentSectors) * SectorSize
		ext := d.extents[sector/extentSectors]
		if ext == nil {
			ext = make([]byte, extentBytes)
			d.extents[sector/extentSectors] = ext
		}
		n := copy(ext[off:], src)
		src = src[n:]
		if short := n % SectorSize; short != 0 {
			clear(ext[off+n : off+n+SectorSize-short])
		}
		sector += uint64(n / SectorSize)
	}
}

// MaxSegments is how many page-sized segments one indirect request carries
// (real blkfront's BLKIF_MAX_INDIRECT_PAGES_PER_REQUEST default is 32; we
// model its classic 11-segment request extended through one indirect page,
// so a single ring slot moves up to 11 pages).
const MaxSegments = 11

// MaxReqSectors is the largest request one ring slot can describe.
const MaxReqSectors = MaxSegments * SectorsPerPage

// Ring slot encoding for block requests/responses (little-endian):
//
//	request:  op u8 | sectors u8 | nsegs u8 (offset 3) | gref u32 (offset 4) |
//	          sector u64 (offset 8) | id u16 (offset 16)
//	response: id u16 | status u8
//
// Direct ops carry the data page's gref and at most one page of sectors.
// Indirect ops carry the gref of an *indirect page* holding nsegs segment
// grefs (LE32 at offsets 0, 4, 8, ...), each a full data page except the
// last — one slot, up to MaxSegments pages.
const (
	opRead          = 0
	opWrite         = 1
	opIndirectRead  = 2
	opIndirectWrite = 3

	bOffOp     = 0
	bOffCount  = 1
	bOffSegs   = 3
	bOffGref   = 4
	bOffSector = 8
	bOffID     = 16
	bOffStatus = 2
)

// Req is one decoded block request.
type Req struct {
	Write    bool
	Indirect bool
	Sectors  uint8  // total sectors (≤ MaxReqSectors)
	Segs     uint8  // segment count; 1 and unused for direct requests
	Gref     uint32 // data page gref (direct) or indirect page gref
	Sector   uint64
	ID       uint16
}

// EncodeReq writes a block request into a ring slot.
func EncodeReq(s *cstruct.View, r Req) {
	op := uint8(opRead)
	switch {
	case r.Indirect && r.Write:
		op = opIndirectWrite
	case r.Indirect:
		op = opIndirectRead
	case r.Write:
		op = opWrite
	}
	s.PutU8(bOffOp, op)
	s.PutU8(bOffCount, r.Sectors)
	s.PutU8(bOffSegs, r.Segs)
	s.PutLE32(bOffGref, r.Gref)
	s.PutLE64(bOffSector, r.Sector)
	s.PutLE16(bOffID, r.ID)
}

// DecodeReq reads a block request.
func DecodeReq(s *cstruct.View) Req {
	op := s.U8(bOffOp)
	return Req{
		Write:    op == opWrite || op == opIndirectWrite,
		Indirect: op == opIndirectRead || op == opIndirectWrite,
		Sectors:  s.U8(bOffCount),
		Segs:     s.U8(bOffSegs),
		Gref:     s.LE32(bOffGref),
		Sector:   s.LE64(bOffSector),
		ID:       s.LE16(bOffID),
	}
}

// EncodeRsp writes a block response.
func EncodeRsp(s *cstruct.View, id uint16, ok bool) {
	s.PutLE16(bOffID, id)
	if ok {
		s.PutU8(bOffStatus, 1)
	} else {
		s.PutU8(bOffStatus, 0)
	}
}

// DecodeRsp reads a block response.
func DecodeRsp(s *cstruct.View) (id uint16, ok bool) {
	return s.LE16(bOffID), s.U8(bOffStatus) == 1
}

// VBD is the backend half of a virtual block device for one guest.
type VBD struct {
	ssd   *SSD
	guest *hypervisor.Domain
	back  *ring.Back
	port  *hypervisor.Port

	// rspPending batches same-instant completions into one publish+notify;
	// flushFunc is that publish, built once so scheduling it allocates
	// nothing.
	rspPending bool
	flushFunc  func()
}

// VBDBackend is the device-seam backend for the block device class: it
// satisfies device.Backend structurally (no import of the seam package
// needed).
type VBDBackend struct {
	SSD *SSD
}

// Kind implements the device backend signature.
func (vb *VBDBackend) Kind() string { return "vbd" }

// Connect maps the single block ring published by the frontend and starts
// the backend's event handler.
func (vb *VBDBackend) Connect(guest *hypervisor.Domain, rings map[string]*cstruct.View, fields map[string]string, port *hypervisor.Port) error {
	page := rings[""]
	if page == nil {
		return fmt.Errorf("blkback: handshake missing ring")
	}
	NewVBD(vb.SSD, guest, page, port)
	return nil
}

// NewVBD attaches a backend over the guest's shared ring page and registers
// its handler (serve) on the event channel.
func NewVBD(ssd *SSD, guest *hypervisor.Domain, ringPage *cstruct.View, port *hypervisor.Port) *VBD {
	v := &VBD{ssd: ssd, guest: guest, back: ring.NewBack(ringPage), port: port}
	v.flushFunc = v.flushEvent
	ssd.K.SpawnHandler(fmt.Sprintf("blkback-dom%d", guest.ID), port.Sig, v.serve)
	return v
}

// serve is the backend's event handler (sim.Kernel.SpawnHandler on the vbd
// event channel): it drains request batches and submits them all to the
// device before any completes, so requests in the ring overlap on the SSD's
// channels. Responses are pushed (possibly out of request order) as the
// device finishes each one. It returns once the ring is empty and request
// events are re-armed.
func (v *VBD) serve() {
	for {
		progressed := false
		for {
			var r Req
			if !v.back.PopRequest(func(s *cstruct.View) { r = DecodeReq(s) }) {
				break
			}
			progressed = true
			v.submit(r)
		}
		if !progressed {
			if raced := v.back.EnableRequestEvents(); raced {
				continue
			}
			return
		}
	}
}

// submit performs the data movement, books device time, and schedules the
// ring response at the device completion instant. An indirect request is
// one device operation: all segment grants are mapped as a batch up front,
// the device is booked once for the whole scatter-gather transfer, and the
// data movement walks the segment pages in order, one ranged copy each.
func (v *VBD) submit(r Req) {
	ok := false
	var done sim.Time
	if r.Indirect {
		ok = v.submitIndirect(r, &done)
	} else {
		ok = v.submitDirect(r, &done)
	}
	if !ok {
		done = v.ssd.K.Now()
	}
	n := uint64(r.ID) << 1
	if ok {
		n |= 1
	}
	v.ssd.K.AtArg(done, respondEvent, v, n)
}

// respondEvent is the event submit queues at the device completion instant:
// the VBD rides the event with the request id and the ok bit packed into n,
// so no closure is built per request.
func respondEvent(vbd any, n uint64) {
	v := vbd.(*VBD)
	id, ok := uint16(n>>1), n&1 == 1
	v.back.PushResponse(func(s *cstruct.View) { EncodeRsp(s, id, ok) })
	v.flushResponses()
}

func (v *VBD) submitDirect(r Req, done *sim.Time) bool {
	if int(r.Sectors) <= 0 || int(r.Sectors) > SectorsPerPage {
		return false
	}
	// Map, then book: a request whose grant does not map must not occupy a
	// channel or count as I/O (submitIndirect orders it the same way).
	page, err := v.guest.Grants.Map(grant.Ref(r.Gref))
	if err != nil {
		return false
	}
	*done = v.ssd.Submit(int(r.Sectors)*SectorSize, r.Write)
	v.moveSectors(r.Write, r.Sector, int(r.Sectors), page, 0)
	v.guest.Grants.Unmap(grant.Ref(r.Gref), page)
	return true
}

func (v *VBD) submitIndirect(r Req, done *sim.Time) bool {
	segs, sectors := int(r.Segs), int(r.Sectors)
	if segs <= 0 || segs > MaxSegments ||
		sectors <= (segs-1)*SectorsPerPage || sectors > segs*SectorsPerPage {
		return false
	}
	ind, err := v.guest.Grants.Map(grant.Ref(r.Gref))
	if err != nil {
		return false
	}
	// Grant-batch mapping: every segment page is mapped before any data
	// moves, so the whole burst pays one mapping pass, not one per page of
	// progress. The batch is bounded by MaxSegments, so it lives on the stack.
	var grefs [MaxSegments]grant.Ref
	var pages [MaxSegments]*cstruct.View
	for i := 0; i < segs; i++ {
		grefs[i] = grant.Ref(ind.LE32(i * 4))
		pg, err := v.guest.Grants.Map(grefs[i])
		if err != nil {
			for j := 0; j < i; j++ {
				v.guest.Grants.Unmap(grefs[j], pages[j])
			}
			v.guest.Grants.Unmap(grant.Ref(r.Gref), ind)
			return false
		}
		pages[i] = pg
	}
	// One device operation for the whole request: the channel is occupied
	// once and the bus sees one transfer, which is where merged queues beat
	// per-page submission.
	*done = v.ssd.Submit(sectors*SectorSize, r.Write)
	left := sectors
	for i := 0; i < segs; i++ {
		n := SectorsPerPage
		if n > left {
			n = left
		}
		v.moveSectors(r.Write, r.Sector+uint64(i*SectorsPerPage), n, pages[i], 0)
		left -= n
	}
	for i := segs - 1; i >= 0; i-- {
		v.guest.Grants.Unmap(grefs[i], pages[i])
	}
	v.guest.Grants.Unmap(grant.Ref(r.Gref), ind)
	return true
}

// moveSectors shuttles n sectors between the device store and a mapped
// segment page starting at byte off within the page — one ranged copy per
// segment page.
func (v *VBD) moveSectors(write bool, sector uint64, n int, page *cstruct.View, off int) {
	buf := page.Slice(off, n*SectorSize)
	if write {
		v.ssd.WriteAt(sector, buf)
	} else {
		v.ssd.ReadAt(sector, buf)
	}
}

// flushResponses defers the response publish to the end of the instant so
// requests completing together (overlapped channel reads) cost the guest one
// wakeup instead of one per response.
func (v *VBD) flushResponses() {
	if v.rspPending {
		return
	}
	v.rspPending = true
	k := v.ssd.K
	k.At(k.Now(), v.flushFunc)
}

// flushEvent is the event flushResponses queues.
func (v *VBD) flushEvent() {
	v.rspPending = false
	if v.back.PushResponses() {
		v.port.NotifyAsync()
	}
}
