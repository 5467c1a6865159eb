// Package mem models the specialised memory system of a Mirage unikernel
// (paper §3.2–§3.3 and Figure 2): the single 64-bit address-space layout
// and a two-generation garbage-collected heap whose costs depend on how the
// address space is managed.
//
// The heap is a cost model, not a real collector: Alloc advances bump
// pointers and accrues virtual CPU time for collections, promotions and
// heap growth. The accrued cost is drained by the runtime and charged to
// the domain's vCPU, which is how GC pressure appears in the thread
// benchmarks (Figure 7a): an extent-backed contiguous heap grows in 2 MiB
// superpages with no chunk table, while a malloc-backed heap grows in
// scattered 4 KiB chunks that the collector must track and a conventional
// OS adds an mmap syscall per growth.
package mem

import (
	"fmt"
	"time"
)

// Sizes used throughout the layout.
const (
	PageSize      = 4 << 10
	SuperpageSize = 2 << 20
)

// Region is a contiguous range of virtual address space with a fixed role.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

func (r Region) String() string {
	return fmt.Sprintf("%s [%#x,%#x) %d KiB", r.Name, r.Base, r.End(), r.Size/1024)
}

// Layout is the specialised virtual-memory layout of a 64-bit unikernel
// (Figure 2): text+data at the bottom, a reserved Xen range, an I/O data
// region for granted pages, a single 2 MiB minor-heap extent, and the
// remainder of memory as the major heap.
type Layout struct {
	TextData  Region
	Reserved  Region // hypervisor-reserved low virtual addresses
	IOData    Region // external I/O pages (grant-mapped)
	MinorHeap Region
	MajorHeap Region
}

// NewLayout builds the layout for a domain with memBytes of memory and a
// binary of binBytes of text+data. Memory regions are statically assigned
// roles; the major heap receives everything left over.
func NewLayout(memBytes, binBytes uint64) (*Layout, error) {
	const (
		reservedBase = 0x0
		reservedSize = 4 << 20 // Xen-reserved low range
		ioShare      = 8       // 1/8th of memory for I/O pages
	)
	binBytes = roundUp(binBytes, PageSize)
	ioSize := roundUp(memBytes/ioShare, SuperpageSize)
	minSize := uint64(SuperpageSize)
	need := binBytes + ioSize + minSize + SuperpageSize
	if memBytes < need {
		return nil, fmt.Errorf("mem: %d bytes insufficient (need >= %d)", memBytes, need)
	}
	l := &Layout{}
	l.Reserved = Region{Name: "xen-reserved", Base: reservedBase, Size: reservedSize}
	l.TextData = Region{Name: "text+data", Base: l.Reserved.End(), Size: binBytes}
	l.IOData = Region{Name: "io-data", Base: roundUp(l.TextData.End(), SuperpageSize), Size: ioSize}
	l.MinorHeap = Region{Name: "minor-heap", Base: l.IOData.End(), Size: minSize}
	major := memBytes - binBytes - ioSize - minSize
	major = major / SuperpageSize * SuperpageSize
	l.MajorHeap = Region{Name: "major-heap", Base: l.MinorHeap.End(), Size: major}
	return l, nil
}

// Regions returns all regions in ascending address order.
func (l *Layout) Regions() []Region {
	return []Region{l.Reserved, l.TextData, l.IOData, l.MinorHeap, l.MajorHeap}
}

// Validate checks the layout invariants: regions are disjoint, ascending,
// and superpage-aligned where required.
func (l *Layout) Validate() error {
	rs := l.Regions()
	for i := 1; i < len(rs); i++ {
		if rs[i].Base < rs[i-1].End() {
			return fmt.Errorf("mem: regions %s and %s overlap", rs[i-1].Name, rs[i].Name)
		}
	}
	if l.IOData.Base%SuperpageSize != 0 || l.MajorHeap.Size%SuperpageSize != 0 {
		return fmt.Errorf("mem: superpage alignment violated")
	}
	return nil
}

func roundUp(x, to uint64) uint64 { return (x + to - 1) / to * to }

// GrowthBackend selects how the major heap obtains memory.
type GrowthBackend int

const (
	// GrowExtent grows in contiguous 2 MiB superpages, as PVBoot's extent
	// allocator hands them out (§3.2; the unikernel's specialised layout).
	GrowExtent GrowthBackend = iota
	// GrowMalloc grows in scattered 4 KiB chunks obtained from a general
	// allocator; the collector must maintain a chunk table.
	GrowMalloc
)

// The generational heap cost model's constants, the same for every
// backend. All costs are nominal virtual-CPU durations; see EXPERIMENTS.md
// for calibration.
const (
	survivalRate = 0.15                  // fraction of minor bytes promoted per minor GC
	scanCost     = 60 * time.Nanosecond  // cost per KiB scanned during collection
	copyCost     = 150 * time.Nanosecond // cost per KiB promoted/compacted
	growCost     = 2 * time.Microsecond  // base cost per growth operation
	majorTrigger = 0.8                   // run a major GC when used/cap exceeds this
)

// HeapConfig is what differs between heaps: the growth backend and what
// the OS under it charges.
type HeapConfig struct {
	Backend     GrowthBackend
	MinorSize   int           // minor heap bytes (Mirage: one 2 MiB extent)
	SyscallCost time.Duration // extra per-growth syscall cost (0 on a unikernel)
	// ChunkTrackCost is paid per tracked chunk at every major collection
	// when Backend == GrowMalloc (the page-table the paper's §3.3 says a
	// userspace GC must maintain). Zero for GrowExtent.
	ChunkTrackCost time.Duration
}

// DefaultHeapConfig returns the unikernel extent-backed configuration.
func DefaultHeapConfig() HeapConfig {
	return HeapConfig{
		Backend:        GrowExtent,
		MinorSize:      2 << 20,
		SyscallCost:    0,
		ChunkTrackCost: 0,
	}
}

// Heap is the two-generation heap cost model. Alloc bumps the minor heap;
// filling it triggers a minor collection that scans the minor heap and
// promotes survivors; major-heap growth and collection costs depend on the
// configured backend. Costs accumulate in Cost until drained.
type Heap struct {
	cfg HeapConfig

	minorUsed int
	majorUsed int
	majorCap  int

	// Cost is the accrued, un-drained virtual CPU cost.
	Cost time.Duration
	// Collection statistics.
	MinorGCs int
	MajorGCs int
	chunks   int // tracked chunks (malloc backend)
}

// NewHeap creates a heap with the given configuration.
func NewHeap(cfg HeapConfig) *Heap {
	if cfg.MinorSize <= 0 {
		panic("mem: heap MinorSize must be positive")
	}
	return &Heap{cfg: cfg}
}

// Alloc allocates n bytes on the minor heap, running collections as needed.
func (h *Heap) Alloc(n int) {
	for n > 0 {
		if h.minorUsed+n <= h.cfg.MinorSize {
			h.minorUsed += n
			return
		}
		// Fill the minor heap, then collect.
		n -= h.cfg.MinorSize - h.minorUsed
		h.minorUsed = h.cfg.MinorSize
		h.minorCollect()
	}
}

func (h *Heap) minorCollect() {
	h.MinorGCs++
	// Scan the whole minor heap; copy survivors into the major heap.
	h.Cost += time.Duration(h.minorUsed/1024+1) * scanCost
	survivors := int(float64(h.minorUsed) * survivalRate)
	h.Cost += time.Duration(survivors/1024+1) * copyCost
	h.ensureMajor(survivors)
	h.majorUsed += survivors
	h.minorUsed = 0
	h.maybeMajorCollect()
}

func (h *Heap) ensureMajor(n int) {
	for h.majorUsed+n > h.majorCap {
		h.Cost += growCost + h.cfg.SyscallCost
		switch h.cfg.Backend {
		case GrowExtent:
			h.majorCap += SuperpageSize
			h.chunks++ // one superpage chunk; never re-scanned
		case GrowMalloc:
			// A general-purpose allocator grows in page-sized chunks, so
			// large growth needs many operations and many tracked chunks.
			h.majorCap += 64 * PageSize
			h.chunks += 64
		}
	}
}

func (h *Heap) maybeMajorCollect() {
	if h.majorCap == 0 || float64(h.majorUsed)/float64(h.majorCap) < majorTrigger {
		return
	}
	h.MajorGCs++
	// Mark: scan the major heap, all of it live. Sweep/compact: copy a
	// fraction of it.
	h.Cost += time.Duration(h.majorUsed/1024+1) * scanCost
	h.Cost += time.Duration(h.majorUsed/4096+1) * copyCost
	if h.cfg.Backend == GrowMalloc {
		// The collector walks its chunk table (the "page table" a
		// userspace GC keeps when the heap is not contiguous, §3.3).
		h.Cost += time.Duration(h.chunks) * h.cfg.ChunkTrackCost
	}
}

// Drain returns and clears the accrued cost; callers charge it to a vCPU.
func (h *Heap) Drain() time.Duration {
	c := h.Cost
	h.Cost = 0
	return c
}
