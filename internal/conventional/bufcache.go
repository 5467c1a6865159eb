package conventional

import (
	"container/list"

	"repro/internal/cstruct"
	"repro/internal/lwt"
	"repro/internal/sim"
	"repro/internal/storage"
)

// BufferedDevice interposes the §3.5.2 kernel buffer cache between a
// storage library and its block device: every operation pays the cache's
// CPU cost (lookup + per-KB copy/insertion) on one serialized CPU — the
// kernel path all requests funnel through — before touching the cache or
// the device. That serialization is the plateau of Figure 9: direct ring
// I/O rides the device's parallel channels while the buffered path queues
// behind a single ~300 MB/s management core regardless of queue depth.
//
// The cache itself is a bounded LRU of sectors with write-through writes:
// hits skip the device but still pay the management cost.
type BufferedDevice struct {
	dev storage.Device
	s   *lwt.Scheduler
	cpu *sim.CPU

	capSectors int
	cache      map[uint64]*list.Element
	order      *list.List // front = most recent
}

type cachedSector struct {
	sector uint64
	data   []byte
}

// NewBufferedDevice wraps dev with a buffer cache holding capSectors
// sectors, costed on its own serialized CPU.
func NewBufferedDevice(s *lwt.Scheduler, dev storage.Device, capSectors int) *BufferedDevice {
	return &BufferedDevice{
		dev: dev, s: s,
		cpu:        s.K.NewCPU("bufcache"),
		capSectors: capSectors,
		cache:      map[uint64]*list.Element{},
		order:      list.New(),
	}
}

// charge reserves the cache-management CPU for an n-byte operation and
// resolves when the (serialized) work is done.
func (d *BufferedDevice) charge(n int) *lwt.Promise[struct{}] {
	pr := lwt.NewPromise[struct{}](d.s)
	done := d.cpu.Reserve(bufferCacheCost(n))
	d.s.K.At(done, func() { pr.Resolve(struct{}{}) })
	return pr
}

func (d *BufferedDevice) lookup(sector uint64) ([]byte, bool) {
	if el, ok := d.cache[sector]; ok {
		d.order.MoveToFront(el)
		return el.Value.(*cachedSector).data, true
	}
	return nil, false
}

func (d *BufferedDevice) insert(sector uint64, data []byte) {
	if el, ok := d.cache[sector]; ok {
		el.Value.(*cachedSector).data = data
		d.order.MoveToFront(el)
		return
	}
	if d.capSectors > 0 && d.order.Len() >= d.capSectors {
		victim := d.order.Back()
		d.order.Remove(victim)
		delete(d.cache, victim.Value.(*cachedSector).sector)
	}
	d.cache[sector] = d.order.PushFront(&cachedSector{sector: sector, data: data})
}

// Read implements storage.Device through the cache.
func (d *BufferedDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	return lwt.Bind(d.charge(sectors*storage.SectorSize), func(struct{}) *lwt.Promise[*cstruct.View] {
		buf := make([]byte, sectors*storage.SectorSize)
		allHit := true
		for i := 0; i < sectors; i++ {
			if b, ok := d.lookup(sector + uint64(i)); ok {
				copy(buf[i*storage.SectorSize:], b)
			} else {
				allHit = false
				break
			}
		}
		if allHit {
			return lwt.Return(d.s, cstruct.Wrap(buf))
		}
		return lwt.Map(d.dev.Read(sector, sectors), func(v *cstruct.View) *cstruct.View {
			data := v.Bytes()
			for i := 0; i < sectors; i++ {
				b := make([]byte, storage.SectorSize)
				copy(b, data[i*storage.SectorSize:])
				d.insert(sector+uint64(i), b)
			}
			return v
		})
	})
}

// Write implements storage.Device: write-through, updating cached sectors.
func (d *BufferedDevice) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	cp := append([]byte(nil), data...)
	return lwt.Bind(d.charge(len(cp)), func(struct{}) *lwt.Promise[*cstruct.View] {
		for i := 0; i*storage.SectorSize < len(cp); i++ {
			b := make([]byte, storage.SectorSize)
			copy(b, cp[i*storage.SectorSize:])
			d.insert(sector+uint64(i), b)
		}
		return d.dev.Write(sector, cp)
	})
}
