// Package storage provides the unikernel storage libraries of paper
// Table 1: an append-only copy-on-write B-tree ported over the Block API
// (the Baardskeerder library of §3.5.2 and §4.4), and a durable key-value
// store over it with a write-ahead log.
//
// All of these are libraries linked with the application: caching policy
// and buffer management are explicit and live inside each library, not in
// a kernel buffer cache (§3.5.2).
package storage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cstruct"
	"repro/internal/lwt"
)

// SectorSize matches the block device sector size.
const SectorSize = 512

// PageSectors is the number of sectors in one I/O page.
const PageSectors = cstruct.PageSize / SectorSize

// Device is the block API the storage libraries build on; blkif satisfies
// it, and MemDevice provides an in-memory double for unit tests.
type Device interface {
	// Read returns a view of sectors*512 bytes starting at sector.
	Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View]
	// Write persists data (at most one page) at sector; the promise
	// resolves on durability. Write captures the payload before it returns:
	// an implementation takes its own copy of data at the call and never
	// reads the slice again, so the caller may overwrite or reuse it at
	// once. The B-tree and the WAL rely on this — each encodes through one
	// long-lived buffer — and all four implementations (blkif.Blkif,
	// MemDevice, CrashDevice, conventional.BufferedDevice) are held to it by
	// TestDeviceWriteCapturesPayloadAtSubmit.
	Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View]
}

// MemDevice is an in-memory Device with immediate completion, for tests
// and for the posix-style development targets of §5 (the paper's
// "posix-direct" debugging workflow).
type MemDevice struct {
	S       *lwt.Scheduler
	sectors map[uint64][]byte
}

// NewMemDevice creates an empty in-memory device.
func NewMemDevice(s *lwt.Scheduler) *MemDevice {
	return &MemDevice{S: s, sectors: map[uint64][]byte{}}
}

// Read implements Device.
func (d *MemDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	if sectors <= 0 || sectors > PageSectors {
		return lwt.FailWith[*cstruct.View](d.S, fmt.Errorf("memdevice: bad read of %d sectors", sectors))
	}
	buf := make([]byte, sectors*SectorSize)
	for i := 0; i < sectors; i++ {
		if b, ok := d.sectors[sector+uint64(i)]; ok {
			copy(buf[i*SectorSize:], b)
		}
	}
	return lwt.Return(d.S, cstruct.Wrap(buf))
}

// Write implements Device.
func (d *MemDevice) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	if len(data) > cstruct.PageSize {
		return lwt.FailWith[*cstruct.View](d.S, fmt.Errorf("memdevice: write larger than a page"))
	}
	d.writeSectors(sector, data)
	return lwt.Return[*cstruct.View](d.S, nil)
}

func (d *MemDevice) writeSectors(sector uint64, data []byte) {
	for i := 0; i*SectorSize < len(data); i++ {
		b := make([]byte, SectorSize)
		copy(b, data[i*SectorSize:])
		d.sectors[sector+uint64(i)] = b
	}
}

// Snapshot returns a deep copy of the device contents — the "disk image"
// a crash drill carries from the killed run to the recovery run.
func (d *MemDevice) Snapshot() map[uint64][]byte {
	out := make(map[uint64][]byte, len(d.sectors))
	for s, b := range d.sectors {
		out[s] = append([]byte(nil), b...)
	}
	return out
}

// NewMemDeviceFrom creates a device seeded with a Snapshot (the snapshot
// is copied).
func NewMemDeviceFrom(s *lwt.Scheduler, snap map[uint64][]byte) *MemDevice {
	d := NewMemDevice(s)
	for sec, b := range snap {
		d.sectors[sec] = append([]byte(nil), b...)
	}
	return d
}

// CrashDevice wraps a MemDevice with modelled per-operation latency and a
// kill switch, in the style of PR 2's seeded fault injection. Before the
// kill it behaves like the inner device, just slower; Kill() at a seeded
// instant makes every in-flight and subsequent operation hang forever, and
// an in-flight multi-sector write persists only its first sector — a torn
// write for recovery to detect.
type CrashDevice struct {
	Inner   *MemDevice
	S       *lwt.Scheduler
	Latency time.Duration

	killed   bool
	nextID   uint64
	inflight map[uint64]*inflightWrite

	// TornWrites counts in-flight writes truncated by the kill.
	TornWrites int
}

type inflightWrite struct {
	id     uint64
	sector uint64
	data   []byte
}

// NewCrashDevice wraps inner with latency-per-op crash semantics.
func NewCrashDevice(s *lwt.Scheduler, inner *MemDevice, latency time.Duration) *CrashDevice {
	return &CrashDevice{Inner: inner, S: s, Latency: latency, inflight: map[uint64]*inflightWrite{}}
}

// Kill makes the device fall silent, as a host power cut would: nothing
// issued after this resolves, and each in-flight multi-sector write tears —
// only its first sector reaches the medium (applied in issue order, so the
// torn image is deterministic).
func (d *CrashDevice) Kill() {
	d.killed = true
	ids := make([]uint64, 0, len(d.inflight))
	for id := range d.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := d.inflight[id]
		n := len(w.data)
		if n > SectorSize {
			n = SectorSize
		}
		d.Inner.writeSectors(w.sector, w.data[:n])
		d.TornWrites++
	}
	d.inflight = map[uint64]*inflightWrite{}
}

// Read implements Device.
func (d *CrashDevice) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	pr := lwt.NewPromise[*cstruct.View](d.S)
	if d.killed {
		return pr // hangs forever
	}
	lwt.Always(d.S.Sleep(d.Latency), func() {
		if d.killed {
			return
		}
		inner := d.Inner.Read(sector, sectors)
		lwt.Always(inner, func() {
			if err := inner.Failed(); err != nil {
				pr.Fail(err)
				return
			}
			pr.Resolve(inner.Value())
		})
	})
	return pr
}

// Write implements Device: the data is captured at issue time; if the kill
// lands before the latency elapses, only the first sector persists.
func (d *CrashDevice) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	pr := lwt.NewPromise[*cstruct.View](d.S)
	if d.killed {
		return pr
	}
	if len(data) > cstruct.PageSize {
		pr.Fail(fmt.Errorf("crashdevice: write larger than a page"))
		return pr
	}
	d.nextID++
	w := &inflightWrite{id: d.nextID, sector: sector, data: append([]byte(nil), data...)}
	d.inflight[w.id] = w
	lwt.Always(d.S.Sleep(d.Latency), func() {
		if d.killed {
			return // Kill already tore it; never resolves
		}
		delete(d.inflight, w.id)
		d.Inner.writeSectors(w.sector, w.data)
		pr.Resolve(nil)
	})
	return pr
}
