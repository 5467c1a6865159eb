// Package blkif is the guest block frontend driver (paper §3.5.2): block
// devices share the same Ring abstraction as network devices and the same
// I/O pages, with filesystems and caching provided as libraries above.
// Reads and writes are always direct — there is no buffer cache on this
// path — and complete via promises on the lwt scheduler.
//
// The fast path mirrors real blkfront: requests submitted in the same
// instant are plugged into a staging queue, adjacent-sector requests merge
// into one scatter-gather operation, and merged operations that exceed one
// page ride an indirect descriptor — one ring slot carrying up to
// MaxSegments data pages through an indirect page of segment grants. A
// burst therefore costs one ring publish, one notification and (per merged
// run) one device operation instead of one of each per request.
package blkif

import (
	"fmt"

	"repro/internal/blkback"
	"repro/internal/cstruct"
	"repro/internal/device"
	"repro/internal/fifo"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// SectorSize re-exports the device sector size.
const SectorSize = blkback.SectorSize

// SectorsPerPage re-exports the page capacity in sectors.
const SectorsPerPage = blkback.SectorsPerPage

// MaxSegments re-exports the indirect-descriptor segment limit: the most
// data pages one merged request (one ring slot) can carry.
const MaxSegments = blkback.MaxSegments

// MaxReqSectors re-exports the largest merged request in sectors.
const MaxReqSectors = blkback.MaxReqSectors

// Blkif is a connected guest block device.
type Blkif struct {
	vm       *pvboot.VM
	front    *ring.Front
	ringPage *cstruct.View
	port     *hypervisor.Port

	nextID   uint16
	inflight map[uint16]*devop
	// staged holds requests plugged in the current instant, merged into
	// devops at unplug time.
	staged []*op
	// queue holds merged devops waiting for ring slots.
	queue fifo.Queue[*devop]
	// unplugAt/flushAt defer merge and ring publish + notify to the end of
	// the current instant, so a burst of submits costs one merge pass and
	// one notification.
	unplugAt, flushAt sim.Flush
	batching          bool
	// free holds write-staging buffers (page capacity) between uses: submit
	// takes one for its copy of the payload, push hands it back once scatter
	// has moved the bytes into the granted I/O pages. Guest-private memory,
	// never granted, touched only in guest context; it grows to the largest
	// number of writes ever staged or queued at once.
	free [][]byte
	// freeOps and freeDevops recycle request records the same way: complete
	// hands a devop and its member ops back once it has settled every op's
	// promise, the devop keeping its ops, pages and grefs slices for reuse.
	freeOps    []*op
	freeDevops []*devop

	// Stats
	Reads, Writes int
	// Merged counts requests that rode along in another request's ring slot
	// (each one a ring slot and a device op saved); Indirect counts ring
	// requests issued through an indirect page.
	Merged, Indirect int

	mxReads    *obs.Counter
	mxWrites   *obs.Counter
	mxMerged   *obs.Counter
	mxIndirect *obs.Counter
	mxSegments *obs.Counter
}

// op is one application-level request: at most a page of sectors, with its
// own completion promise. Several ops may share a devop after merging.
type op struct {
	write   bool
	sectors int
	sector  uint64
	// data is the write payload, copied at submit into a recycled staging
	// buffer — so the caller may reuse its slice as soon as Write returns —
	// and given back to the free list at push.
	data []byte
	pr   *lwt.Promise[*cstruct.View]
}

// devop is one ring request: a merged run of adjacent ops issued as a
// single (possibly indirect) scatter-gather operation.
type devop struct {
	write   bool
	sector  uint64
	sectors int
	ops     []*op

	pages   []*cstruct.View
	grefs   []grant.Ref
	indPage *cstruct.View // nil for direct (single-page) requests
	indGref grant.Ref
	started sim.Time
}

// Attach creates and connects a block device for vm against ssd through
// the unified device seam, with the xenstore handshake under
// /local/domain/<id>/device/vbd/0.
func Attach(vm *pvboot.VM, ssd *blkback.SSD, dom0 *hypervisor.Domain, st *xenstore.Store) (*Blkif, error) {
	d := vm.Dom
	ringPage := d.Pool.Get()
	b := &Blkif{
		vm:       vm,
		front:    ring.NewFront(ringPage),
		ringPage: ringPage,
		inflight: map[uint16]*devop{},
		batching: true,
	}
	b.unplugAt.Init(func(owner any) { owner.(*Blkif).unplug() }, b)
	b.flushAt.Init(func(owner any) { owner.(*Blkif).flush() }, b)
	k := vm.S.K
	m := k.Metrics()
	dev := obs.L("dev", fmt.Sprintf("vbd%d", d.ID))
	b.mxReads = m.Counter("blk_requests_total", dev, obs.L("op", "read"))
	b.mxWrites = m.Counter("blk_requests_total", dev, obs.L("op", "write"))
	b.mxMerged = m.Counter("blk_merged_requests_total", dev)
	b.mxIndirect = m.Counter("blk_indirect_requests_total", dev)
	b.mxSegments = m.Counter("blk_segments_total", dev)
	occ := m.Histogram("ring_occupancy", []float64{1, 2, 4, 8, 16, 24, 32}, dev, obs.L("ring", "blk"))
	b.front.Hooks.OnPublish = func(inFlight int, notify bool) {
		occ.Observe(float64(inFlight))
	}

	if _, err := vm.Attach(dom0, st, 0, b, &blkback.VBDBackend{SSD: ssd}); err != nil {
		return nil, err
	}
	return b, nil
}

// Kind implements device.Frontend.
func (b *Blkif) Kind() string { return "vbd" }

// Rings implements device.Frontend: block devices use a single unnamed
// ring, published as plain "ring-ref".
func (b *Blkif) Rings() []device.Ring {
	return []device.Ring{{Name: "", Page: b.ringPage}}
}

// Fields implements device.Frontend.
func (b *Blkif) Fields() map[string]string { return nil }

// Connected implements device.Frontend.
func (b *Blkif) Connected(port *hypervisor.Port) { b.port = port }

// SetBatching toggles request merging and indirect descriptors (on by
// default). With batching off every request occupies its own ring slot and
// its own device operation — the pre-fast-path behaviour, kept as the
// measured baseline for fig9's batched-vs-unbatched comparison.
func (b *Blkif) SetBatching(on bool) { b.batching = on }

// Read reads sectors (1..8) starting at sector into a fresh I/O page and
// resolves with a view of the data. The caller owns the view.
func (b *Blkif) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	return b.submit(false, sector, sectors, nil)
}

// Write writes data (at most one page, sector-aligned length) at sector.
// The payload is captured before Write returns: what reaches the device is
// data as it was at the call, whatever the caller does to the slice
// afterwards. The promise resolves with nil once the device acknowledges —
// writes are direct, so resolution means persistence (§3.5.2).
func (b *Blkif) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	sectors := (len(data) + SectorSize - 1) / SectorSize
	return b.submit(true, sector, sectors, data)
}

func (b *Blkif) submit(write bool, sector uint64, sectors int, data []byte) *lwt.Promise[*cstruct.View] {
	pr := lwt.NewPromise[*cstruct.View](b.vm.S)
	if sectors <= 0 || sectors > SectorsPerPage {
		pr.Fail(fmt.Errorf("blkif: bad request size %d sectors", sectors))
		return pr
	}
	o := take(&b.freeOps)
	*o = op{
		write:   write,
		sectors: sectors,
		sector:  sector,
		pr:      pr,
	}
	if write {
		o.data = append(b.stagingBuf(), data...)
		b.Writes++
		b.mxWrites.Inc()
	} else {
		b.Reads++
		b.mxReads.Inc()
	}
	b.staged = append(b.staged, o)
	b.scheduleUnplug()
	return pr
}

// stagingBuf returns an empty page-capacity buffer for a write payload,
// recycled if one is free.
func (b *Blkif) stagingBuf() []byte {
	if n := len(b.free); n > 0 {
		buf := b.free[n-1]
		b.free = b.free[:n-1]
		return buf[:0]
	}
	return make([]byte, 0, cstruct.PageSize)
}

// take pops a recycled record off free, or allocates a zero one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// scheduleUnplug arranges an unplug at the end of the current instant, so
// same-instant bursts merge.
func (b *Blkif) scheduleUnplug() {
	if k := b.vm.S.K; !b.unplugAt.Pending() {
		b.unplugAt.Arm(k, k.Now())
	}
}

// unplug merges the staged requests into devops and issues as many as the
// ring has slots for; the rest wait in the queue.
func (b *Blkif) unplug() {
	if len(b.staged) == 0 {
		return
	}
	var cur *devop
	for _, o := range b.staged {
		if b.batching && cur != nil && cur.write == o.write &&
			cur.sector+uint64(cur.sectors) == o.sector && o.sector > cur.sector && // not across 2⁶⁴
			cur.sectors+o.sectors <= MaxReqSectors {
			cur.ops = append(cur.ops, o)
			cur.sectors += o.sectors
			b.Merged++
			b.mxMerged.Inc()
			continue
		}
		cur = take(&b.freeDevops)
		cur.write, cur.sector, cur.sectors = o.write, o.sector, o.sectors
		cur.ops = append(cur.ops, o)
		b.queue.Push(cur)
	}
	b.staged = b.staged[:0]
	b.fill()
}

// fill pushes queued devops while ring slots are free.
func (b *Blkif) fill() {
	for b.queue.Len() > 0 && b.front.Free() > 0 {
		b.push(b.queue.Pop())
	}
}

// push materialises a devop's I/O pages, grants them, and encodes the ring
// request — direct for a single-page devop, indirect otherwise. A write's
// pages are granted read-only, as Linux blkfront grants them: the backend
// only reads them.
func (b *Blkif) push(d *devop) {
	dom := b.vm.Dom
	npages := (d.sectors + SectorsPerPage - 1) / SectorsPerPage
	for i := 0; i < npages; i++ {
		pg := dom.Pool.Get()
		d.pages = append(d.pages, pg)
		d.grefs = append(d.grefs, dom.Grants.Grant(pg, d.write))
	}
	if d.write {
		off := 0
		for _, o := range d.ops {
			b.scatter(d, off, o.data)
			off += o.sectors * SectorSize
			b.free = append(b.free, o.data)
			o.data = nil
		}
	}
	b.nextID++
	id := b.nextID
	b.inflight[id] = d
	d.started = b.vm.S.K.Now()
	req := blkback.Req{
		Write:   d.write,
		Sectors: uint8(d.sectors),
		Segs:    uint8(npages),
		Sector:  d.sector,
		ID:      id,
	}
	if npages == 1 {
		req.Gref = uint32(d.grefs[0])
	} else {
		req.Indirect = true
		d.indPage = dom.Pool.Get()
		for i, g := range d.grefs {
			d.indPage.PutLE32(i*4, uint32(g))
		}
		d.indGref = dom.Grants.Grant(d.indPage, true)
		req.Gref = uint32(d.indGref)
		b.Indirect++
		b.mxIndirect.Inc()
	}
	b.mxSegments.Add(int64(npages))
	b.front.PushRequest(func(s *cstruct.View) { blkback.EncodeReq(s, req) })
	b.scheduleFlush()
}

// scatter copies a write payload into the devop's pages starting at byte
// offset off within the merged request.
func (b *Blkif) scatter(d *devop, off int, data []byte) {
	for len(data) > 0 {
		pg := d.pages[off/cstruct.PageSize]
		po := off % cstruct.PageSize
		n := cstruct.PageSize - po
		if n > len(data) {
			n = len(data)
		}
		pg.PutBytes(po, data[:n])
		data = data[n:]
		off += n
	}
}

// gatherView resolves a read op's view of the completed devop: a zero-copy
// sub-view when the op's bytes sit inside one segment page, an assembled
// copy when a merged op straddles two.
func (d *devop) gatherView(off, n int) *cstruct.View {
	pi := off / cstruct.PageSize
	po := off % cstruct.PageSize
	if po+n <= cstruct.PageSize {
		return d.pages[pi].Sub(po, n)
	}
	buf := make([]byte, n)
	for copied := 0; copied < n; {
		pg := d.pages[(off+copied)/cstruct.PageSize]
		so := (off + copied) % cstruct.PageSize
		c := copy(buf[copied:], pg.Slice(so, cstruct.PageSize-so))
		copied += c
	}
	return cstruct.Wrap(buf)
}

// scheduleFlush publishes the batch of requests pushed this instant with a
// single ring publish and at most one event-channel notification (§3.4.1
// batching: the backend pays per wakeup, not per request).
func (b *Blkif) scheduleFlush() {
	if k := b.vm.S.K; !b.flushAt.Pending() {
		b.flushAt.Arm(k, k.Now())
	}
}

// flush is the publish scheduleFlush defers.
func (b *Blkif) flush() {
	if b.front.PushRequests() {
		b.port.NotifyAsync()
	}
}

// OnEvent implements device.Frontend: it drains completions inside the
// scheduler run loop.
func (b *Blkif) OnEvent() {
	for {
		for {
			var id uint16
			var ok bool
			if !b.front.PopResponse(func(s *cstruct.View) { id, ok = blkback.DecodeRsp(s) }) {
				break
			}
			d := b.inflight[id]
			if d == nil {
				continue
			}
			delete(b.inflight, id)
			b.complete(d, ok)
		}
		b.fill()
		if raced := b.front.EnableResponseEvents(); !raced {
			return
		}
	}
}

// complete ends the devop's grants, distributes results to its member ops,
// releases the I/O pages, and recycles the devop and its ops.
func (b *Blkif) complete(d *devop, ok bool) {
	b.traceDone(d)
	dom := b.vm.Dom
	for _, g := range d.grefs {
		dom.Grants.End(g)
	}
	if d.indPage != nil {
		dom.Grants.End(d.indGref)
		d.indPage.Release()
		d.indPage = nil
	}
	off := 0
	for _, o := range d.ops {
		switch {
		case !ok:
			o.pr.Fail(fmt.Errorf("blkif: device error"))
		case o.write:
			o.pr.Resolve(nil)
		default:
			o.pr.Resolve(d.gatherView(off, o.sectors*SectorSize))
		}
		off += o.sectors * SectorSize
	}
	for _, pg := range d.pages {
		pg.Release()
	}
	for _, o := range d.ops {
		*o = op{}
		b.freeOps = append(b.freeOps, o)
	}
	clear(d.ops)
	clear(d.pages)
	d.ops, d.pages, d.grefs = d.ops[:0], d.pages[:0], d.grefs[:0]
	b.freeDevops = append(b.freeDevops, d)
}

// traceDone emits a span covering the devop's issue-to-completion life.
func (b *Blkif) traceDone(d *devop) {
	k := b.vm.S.K
	tr := k.Trace()
	if !tr.Enabled() {
		return
	}
	name := "read"
	if d.write {
		name = "write"
	}
	tr.Complete(obs.Time(d.started), obs.Time(k.Now().Sub(d.started)), "blk", name,
		b.vm.Dom.ID, 0,
		obs.Int("sector", int64(d.sector)), obs.Int("sectors", int64(d.sectors)),
		obs.Int("reqs", int64(len(d.ops))))
}
