// Package blkback models the block backend of the driver domain (paper
// §3.5.2): an SSD device with internal channel parallelism and a shared
// bus, plus a per-guest VBD backend that drains the guest's request ring.
// There is no buffer cache anywhere on this path — all requests go direct
// to the device, which is the unikernel storage discipline ("the only
// built-in policy is that all writes are guaranteed to be direct").
package blkback

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/cstruct"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/obs"
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

// chunkBytes is the size of the append-only chunks the stored page prefixes
// are packed into, picked by measurement: kv_mixed (three repetitions, twice
// per size, on a 2-vCPU Xeon) held 64.8–65.2 MiB of host memory with 16 KiB
// chunks, 64.2–64.4 at 64 KiB, 62.5–63.1 at 256 KiB, 61.9–64.8 at 1 MiB and
// 61.8–65.3 at 4 MiB, and its 331–418 k ops/s of wall clock showed no trend.
// Flat, because every page shares the chunks: the size sets only how often
// one is allocated and the under-a-page each one leaves unused at its end.
// 1 MiB holds about 1,700 of kv_mixed's 600-byte page prefixes.
const chunkBytes = 1 << 20

// SSD is the device model plus its backing store. Each written page keeps
// only its bytes up to its last non-zero byte (a copy-on-write B-tree's
// nodes and a log's pages are mostly zero padding), packed into pointer-free chunks behind
// a pointer-free index, so the collector has only the index and the chunk
// list to scan. The index is sparse because appliances address the device
// far apart (kv_mixed keeps its B-tree at sector 8 and its WAL at sector
// 2²⁶). Slots are never freed: a rewrite whose prefix fits the page's slot
// reuses it, a longer one takes a new slot at the chunks' tail.
type SSD struct {
	K        *sim.Kernel
	channels [SSDChannels]sim.Time // per-channel busy-until
	bus      *sim.CPU

	pages   map[uint64]span // page index (sector / SectorsPerPage) -> its stored prefix
	chunks  [][]byte        // chunkBytes each; the last is filled up to tail
	tail    int
	scratch [cstruct.PageSize]byte // a sub-page write's read-modify-write

	Writes int // write operations booked
}

// span is where a page's stored prefix lives: n bytes at off in chunk, in a
// slot of slot bytes. The page reads as those n bytes, then zeros.
type span struct {
	chunk, off uint32
	n, slot    uint16
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
		K:     k,
		bus:   k.NewCPU(bus),
		pages: map[uint64]span{},
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
	}
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
// across as many sectors and pages as len(dst) covers. Ranges never
// written read as zeros, and reading stores nothing.
func (d *SSD) ReadAt(sector uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(sector%SectorsPerPage) * SectorSize
		n := min(len(dst), cstruct.PageSize-off)
		d.readPage(sector/SectorsPerPage, off, dst[:n])
		dst = dst[n:]
		sector += uint64(n / SectorSize)
	}
}

// readPage fills dst with page pg's bytes from off on: what its prefix
// holds there, zeros past it.
func (d *SSD) readPage(pg uint64, off int, dst []byte) {
	sp := d.pages[pg]
	c := 0
	if off < int(sp.n) {
		at := int(sp.off)
		c = copy(dst, d.chunks[sp.chunk][at+off:at+int(sp.n)])
	}
	clear(dst[c:])
}

// WriteAt stores src from the start of sector on. The bytes are copied, so
// the caller keeps its buffer; a final sector src only partly covers is
// zero-filled to its end. A whole page is stored straight from src; a part
// of one is merged into the page in the scratch page first.
func (d *SSD) WriteAt(sector uint64, src []byte) {
	for len(src) > 0 {
		pg := sector / SectorsPerPage
		off := int(sector%SectorsPerPage) * SectorSize
		n := min(len(src), cstruct.PageSize-off)
		if n == cstruct.PageSize {
			d.store(pg, (*[cstruct.PageSize]byte)(src))
		} else {
			page := &d.scratch
			d.readPage(pg, 0, page[:])
			copy(page[off:], src[:n])
			if short := n % SectorSize; short != 0 {
				clear(page[off+n : off+n+SectorSize-short])
			}
			d.store(pg, page)
		}
		src = src[n:]
		sector += uint64(n / SectorSize)
	}
}

// store makes page the contents of page pg, keeping its non-zero prefix: in
// the page's slot if it fits, else in a new slot at the chunks' tail. An
// all-zero page never written stores nothing.
func (d *SSD) store(pg uint64, page *[cstruct.PageSize]byte) {
	n := prefixLen(page)
	sp, ok := d.pages[pg]
	if !ok && n == 0 {
		return
	}
	if n > int(sp.slot) {
		if len(d.chunks) == 0 || d.tail+n > chunkBytes {
			d.chunks = append(d.chunks, make([]byte, chunkBytes))
			d.tail = 0
		}
		sp = span{chunk: uint32(len(d.chunks) - 1), off: uint32(d.tail), slot: uint16(n)}
		d.tail += n
	}
	sp.n = uint16(n)
	copy(d.chunks[sp.chunk][sp.off:], page[:n])
	d.pages[pg] = sp
}

// prefixLen is the length of page up to and including its last non-zero
// byte. It skips trailing zeros 32 bytes at a time, ORing four words — on a
// page with a 600 B prefix, 140–210 ns on a 2-vCPU Xeon against 500–650 ns
// for a loop over single words (copying the whole page takes 68 ns) — then
// finds the last non-zero byte within the last non-zero word.
func prefixLen(page *[cstruct.PageSize]byte) int {
	le := binary.LittleEndian
	i := len(page)
	for ; i > 0; i -= 32 {
		w := page[i-32 : i]
		if le.Uint64(w)|le.Uint64(w[8:])|le.Uint64(w[16:])|le.Uint64(w[24:]) != 0 {
			break
		}
	}
	for ; i > 0; i -= 8 {
		if w := le.Uint64(page[i-8 : i]); w != 0 {
			return i - bits.LeadingZeros64(w)/8
		}
	}
	return 0
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

	// flushAt batches same-instant completions into one publish+notify.
	flushAt sim.Flush
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
	v.flushAt.Init(func(owner any) { owner.(*VBD).flush() }, v)
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
// data movement walks the segment pages in order, one ranged copy each. A
// request that fails (malformed, wrapping past sector 2⁶⁴, or a grant that
// does not map with the access it needs) is answered at once and counted in
// blk_failed_requests_total, created at the first failure.
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
		v.ssd.K.Metrics().Counter("blk_failed_requests_total", obs.L("dev", fmt.Sprintf("vbd%d", v.guest.ID))).Inc()
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
	if int(r.Sectors) <= 0 || int(r.Sectors) > SectorsPerPage || wraps(r.Sector, int(r.Sectors)) {
		return false
	}
	// Map, then book: a request whose grant does not map must not occupy a
	// channel or count as I/O (submitIndirect orders it the same way). A
	// write only reads the guest's page; a read fills it, so it needs a
	// writable grant.
	page, err := v.guest.Grants.Map(grant.Ref(r.Gref), r.Write)
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
		sectors <= (segs-1)*SectorsPerPage || sectors > segs*SectorsPerPage ||
		wraps(r.Sector, sectors) {
		return false
	}
	ind, err := v.guest.Grants.Map(grant.Ref(r.Gref), true)
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
		pg, err := v.guest.Grants.Map(grefs[i], r.Write)
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

// wraps reports whether n sectors from sector on run past the last sector
// a 64-bit address names; the device fails such a request rather than let
// its tail land on sector 0.
func wraps(sector uint64, n int) bool { return sector+uint64(n-1) < sector }

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
	if k := v.ssd.K; !v.flushAt.Pending() {
		v.flushAt.Arm(k, k.Now())
	}
}

// flush is the publish flushResponses defers.
func (v *VBD) flush() {
	if v.back.PushResponses() {
		v.port.NotifyAsync()
	}
}
